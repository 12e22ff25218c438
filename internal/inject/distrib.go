// Distributed campaign fabric: a coordinator plans the library sweep,
// shards the function list into work units, and leases them to worker
// processes over the collect wire protocol; workers run their shard
// through the ordinary campaign engine and stream per-function results
// back. The coordinator merges results in canonical function order, with
// the same merge a local sweep uses, so the final report — and the
// robust-API XML rendered from it — is byte-identical to a local sweep
// for any worker count.
//
// Fault tolerance is lease-based: a shard leased to a worker that stops
// sending results or heartbeats past the lease timeout is re-leased to
// the next worker that asks; a shard held by a live-but-slow worker past
// the straggler deadline is speculatively re-issued. Both paths may
// produce duplicate results, which the coordinator dedups idempotently
// by content-hash key (the same funcKey that addresses the campaign
// cache), so replays are harmless: the first result for a function wins
// and every later copy is acknowledged and dropped. Accepted results are
// full cache entries, folded into the coordinator's campaign cache so a
// fleet's persistent cache warms monotonically.
package inject

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"healers/internal/collect"
	"healers/internal/xmlrep"
)

// Coordinator defaults; override with the CoordOptions.
const (
	// DefaultLeaseTimeout is how long a shard stays leased without a
	// heartbeat or result before it is re-leased.
	DefaultLeaseTimeout = 30 * time.Second
	// DefaultStragglerAfter is how long a shard may stay with one
	// worker — heartbeats notwithstanding — before an idle worker gets
	// a speculative duplicate lease.
	DefaultStragglerAfter = 2 * time.Minute
	// DefaultShards is the work-unit count when the caller does not
	// choose one: enough to keep a handful of workers busy without
	// making shards degenerate.
	DefaultShards = 8
)

// WorkerStat is one worker's share of a distributed sweep, as observed
// by the coordinator.
type WorkerStat struct {
	Name string
	// Funcs and Probes count accepted (non-duplicate) results; Cached
	// counts the accepted functions the worker served from its own
	// local cache instead of probing.
	Funcs  int
	Probes int
	Cached int
	// Busy is the worker-reported probing wall time.
	Busy time.Duration
	// LastSeen is the last request, result, or heartbeat.
	LastSeen time.Time
}

// ShardCounts summarizes the lease table for monitoring.
type ShardCounts struct {
	Pending, Leased, Done int
	// Releases counts lease-timeout re-leases; Stragglers counts
	// speculative duplicate leases.
	Releases   int
	Stragglers int
}

// CoordOption configures a Coordinator.
type CoordOption func(*Coordinator)

// WithLeaseTimeout sets how long a shard stays leased without a result
// or heartbeat before it is handed to another worker.
func WithLeaseTimeout(d time.Duration) CoordOption {
	return func(co *Coordinator) { co.leaseTimeout = d }
}

// WithStragglerAfter sets the straggler deadline: a shard still
// incomplete this long after it was leased is speculatively re-issued to
// an idle worker even while its holder keeps heartbeating. d <= 0
// disables speculation.
func WithStragglerAfter(d time.Duration) CoordOption {
	return func(co *Coordinator) { co.straggler = d }
}

// shardState is one work unit's lease-table entry.
type shardState struct {
	funcs    []int // plan indices
	worker   string
	attempt  int
	leased   bool
	leasedAt time.Time
	deadline time.Time
}

// Coordinator serves a sharded library sweep to worker processes. Build
// one with NewCoordinator, start it with Serve, and block on Wait for
// the merged report.
type Coordinator struct {
	camp         *Campaign
	plan         *libPlan
	config       string
	leaseTimeout time.Duration
	straggler    time.Duration

	srv *collect.Server

	mu        sync.Mutex
	shards    []shardState
	byName    map[string]int  // function name -> plan index
	reports   []*FuncReport   // resolved reports, plan-indexed
	wall      []time.Duration // worker-reported per-function wall time
	cached    []bool          // resolved from the coordinator's or a worker's cache
	remaining int             // unresolved functions
	workers   map[string]*WorkerStat
	dismissed map[string]bool // workers already told the sweep is done
	counts    ShardCounts
	start     time.Time

	done      chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// NewCoordinator plans c's library sweep and shards the un-cached
// functions into nshards work units (nshards <= 0 picks DefaultShards;
// the count is capped at the function count so no shard is empty).
// Functions already satisfied by the campaign's cache never reach the
// wire.
func NewCoordinator(c *Campaign, nshards int, opts ...CoordOption) *Coordinator {
	plan := c.planLibrary()
	co := &Coordinator{
		camp:         c,
		plan:         plan,
		config:       c.configHash(),
		leaseTimeout: DefaultLeaseTimeout,
		straggler:    DefaultStragglerAfter,
		byName:       make(map[string]int, len(plan.funcs)),
		wall:         make([]time.Duration, len(plan.funcs)),
		cached:       make([]bool, len(plan.funcs)),
		workers:      make(map[string]*WorkerStat),
		dismissed:    make(map[string]bool),
		done:         make(chan struct{}),
		closed:       make(chan struct{}),
		start:        time.Now(),
	}
	for _, o := range opts {
		o(co)
	}

	// Resolve coordinator-cache hits up front; only misses are sharded.
	// The partition warms from the registry first, so a fleet-shared
	// entry counts as a cache hit here and distributed sweeps lease only
	// genuine global misses.
	_, co.reports = c.partition(plan.funcs, co.config)
	var misses []int
	for fi, fp := range plan.funcs {
		co.byName[fp.name] = fi
		if co.reports[fi] != nil {
			co.cached[fi] = true
			continue
		}
		misses = append(misses, fi)
	}
	co.remaining = len(misses)
	if co.remaining == 0 {
		close(co.done)
		return co
	}

	if nshards <= 0 {
		nshards = DefaultShards
	}
	if nshards > len(misses) {
		nshards = len(misses)
	}
	// Round-robin interleave: canonical order sorts alphabetically, and
	// neighbouring functions tend to cost alike, so striping balances
	// shards better than contiguous slabs.
	co.shards = make([]shardState, nshards)
	for i, fi := range misses {
		s := &co.shards[i%nshards]
		s.funcs = append(s.funcs, fi)
	}
	co.counts.Pending = nshards
	return co
}

// Serve starts listening for workers on addr ("127.0.0.1:0" for an
// ephemeral port).
func (co *Coordinator) Serve(addr string, opts ...collect.Option) error {
	srv, err := collect.Serve(addr, append(opts, collect.WithHandler(collect.Handler{
		xmlrep.KindWorkRequest: co.handleRequest,
		xmlrep.KindWorkResult:  co.handleResult,
		xmlrep.KindHeartbeat:   co.handleHeartbeat,
	}))...)
	if err != nil {
		return err
	}
	co.srv = srv
	return nil
}

// Addr returns the coordinator's listen address.
func (co *Coordinator) Addr() string { return co.srv.Addr() }

// Close stops serving workers. Closing before the sweep completes makes
// Wait return an error.
func (co *Coordinator) Close() error {
	var err error
	co.closeOnce.Do(func() {
		close(co.closed)
		if co.srv != nil {
			err = co.srv.Close()
		}
	})
	return err
}

// errAck renders a fatal acknowledgement.
func errAck(reason string) []byte { return xmlrep.MustMarshal(&xmlrep.WorkAck{Reason: reason}) }

func okAck(accepted int) []byte {
	return xmlrep.MustMarshal(&xmlrep.WorkAck{OK: true, Accepted: accepted})
}

// touchWorker updates the per-worker bookkeeping. Callers hold co.mu.
func (co *Coordinator) touchWorker(name string) *WorkerStat {
	ws := co.workers[name]
	if ws == nil {
		ws = &WorkerStat{Name: name}
		co.workers[name] = ws
	}
	ws.LastSeen = time.Now()
	return ws
}

// handleRequest grants a shard lease: a pending shard first, then an
// expired lease, then — past the straggler deadline — a speculative
// duplicate of the slowest in-flight shard. With nothing to hand out it
// tells the worker when to poll again, and once every function has a
// result it tells the worker to exit.
func (co *Coordinator) handleRequest(data []byte) []byte {
	req, err := xmlrep.Unmarshal[xmlrep.WorkRequest](data)
	if err != nil {
		return errAck(fmt.Sprintf("bad work request: %v", err))
	}
	if req.Hierarchy != HierarchyVersion() {
		return errAck(fmt.Sprintf("probe hierarchy mismatch: worker %s, coordinator %s (mixed toolkit versions)",
			req.Hierarchy, HierarchyVersion()))
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.touchWorker(req.Worker)

	lease := &xmlrep.WorkLease{Shard: -1}
	if co.remaining == 0 {
		lease.Done = true
		co.dismissed[req.Worker] = true
		return marshalLease(lease)
	}

	now := time.Now()
	si := co.pickShardLocked(req.Worker, now)
	if si < 0 {
		// Nothing to hand out right now; tell the worker when to poll
		// again. A quarter of the lease timeout reacts promptly to a
		// crashed holder, capped so huge lease windows don't turn
		// workers comatose.
		retry := co.leaseTimeout / 4
		if retry > 250*time.Millisecond {
			retry = 250 * time.Millisecond
		}
		if retry < 20*time.Millisecond {
			retry = 20 * time.Millisecond
		}
		lease.RetryMS = int(retry / time.Millisecond)
		return marshalLease(lease)
	}

	s := &co.shards[si]
	if !s.leased {
		co.counts.Pending--
		co.counts.Leased++
	}
	s.leased = true
	s.worker = req.Worker
	s.attempt++
	s.leasedAt = now
	s.deadline = now.Add(co.leaseTimeout)

	lease.Shard = si
	lease.Attempt = s.attempt
	lease.Library = co.camp.target
	lease.Stdin = co.camp.stdin
	lease.Preloads = append([]string(nil), co.camp.preloads...)
	lease.Config = co.config
	lease.Hierarchy = HierarchyVersion()
	lease.LeaseMS = int(co.leaseTimeout / time.Millisecond)
	for _, fi := range s.funcs {
		if co.reports[fi] == nil { // re-leases skip already-resolved functions
			lease.Funcs = append(lease.Funcs, co.plan.funcs[fi].name)
		}
	}
	return marshalLease(lease)
}

func marshalLease(l *xmlrep.WorkLease) []byte {
	xmlrep.Seal(l)
	return xmlrep.MustMarshal(l)
}

// pickShardLocked selects the shard to lease to worker, or -1. Callers
// hold co.mu.
func (co *Coordinator) pickShardLocked(worker string, now time.Time) int {
	// First choice: a shard nobody holds — never leased, or whose lease
	// expired without completing (the crash/disconnect path).
	for si := range co.shards {
		s := &co.shards[si]
		if co.shardDoneLocked(s) {
			continue
		}
		if !s.leased {
			return si
		}
		if now.After(s.deadline) {
			co.counts.Releases++
			return si
		}
	}
	// Second choice: speculate on the slowest straggler — an incomplete
	// shard another worker has held past the straggler deadline.
	if co.straggler <= 0 {
		return -1
	}
	best, bestAge := -1, co.straggler
	for si := range co.shards {
		s := &co.shards[si]
		if co.shardDoneLocked(s) || !s.leased || s.worker == worker {
			continue
		}
		if age := now.Sub(s.leasedAt); age >= bestAge {
			best, bestAge = si, age
		}
	}
	if best >= 0 {
		co.counts.Stragglers++
	}
	return best
}

// shardDoneLocked reports whether every function of s has a result.
// Callers hold co.mu.
func (co *Coordinator) shardDoneLocked(s *shardState) bool {
	for _, fi := range s.funcs {
		if co.reports[fi] == nil {
			return false
		}
	}
	return true
}

// handleResult merges one streamed result document: validate integrity
// and configuration, dedup each entry by its content-hash key, fold the
// accepted entries into the campaign cache, and account the worker's
// throughput. Duplicates — replays after a retry, or the losing side of
// a speculative re-issue — are acknowledged and dropped, which is what
// makes result delivery idempotent. An entry the cache fails to record
// refuses the document before the entry is credited.
func (co *Coordinator) handleResult(data []byte) []byte {
	res, err := xmlrep.Unmarshal[xmlrep.WorkResult](data)
	if err != nil {
		return errAck(fmt.Sprintf("bad work result: %v", err))
	}
	if xmlrep.Verify(res) != nil {
		return errAck("work result checksum mismatch (corrupted frame)")
	}
	if res.Config != co.config {
		return errAck(fmt.Sprintf("injector config mismatch: worker %s, coordinator %s", res.Config, co.config))
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.touchWorker(res.Worker)

	accepted := 0
	for i := range res.Funcs {
		fx := &res.Funcs[i]
		fi, ok := co.byName[fx.Name]
		if !ok || co.reports[fi] != nil {
			continue // not a function of this sweep, or a duplicate: first result won
		}
		fp := &co.plan.funcs[fi]
		if fx.Key != funcKey(fp.proto, co.config) {
			// Derived under a different (prototype, hierarchy, config):
			// refuse rather than merge incomparable results.
			continue
		}
		fr, err := reportFromXML(&fx.CacheFuncXML)
		if err != nil {
			continue // undecodable entry; the shard stays unresolved
		}
		fr.Proto = fp.proto
		// Fold the worker's entry into the coordinator's campaign cache
		// — put (not a blind insert) so checkpoint auto-flush and
		// stale-key replacement apply; the fleet's persistent cache then
		// warms monotonically through the normal MergeFrom save path —
		// and queue it for the shared registry, which is how a
		// distributed sweep's fresh derivations reach the rest of the
		// fleet.
		if err := co.camp.cachePut(fx.Name, co.config, fx.Key, fr); err != nil {
			return errAck(fmt.Sprintf("recording result: %v", err))
		}
		co.reports[fi] = fr
		co.wall[fi] = time.Duration(fx.WallNS)
		co.cached[fi] = res.CachedLocal
		co.remaining--
		accepted++
		ws.Funcs++
		ws.Probes += fr.Probes
		ws.Busy += time.Duration(fx.WallNS)
		if res.CachedLocal {
			ws.Cached++
		}
		if co.camp.progress != nil {
			co.camp.progress(Progress{
				Func: fx.Name, FuncProbes: fr.Probes,
				DoneFuncs: co.doneFuncsLocked(), TotalFuncs: len(co.plan.funcs),
				DoneProbes: co.doneProbesLocked(), TotalProbes: co.plan.totalProbes,
			})
		}
	}

	// A result is as good as a heartbeat for the shard it came from.
	if res.Shard >= 0 && res.Shard < len(co.shards) {
		s := &co.shards[res.Shard]
		if s.worker == res.Worker {
			s.deadline = time.Now().Add(co.leaseTimeout)
		}
		if s.leased && co.shardDoneLocked(s) {
			s.leased = false
			co.counts.Leased--
			co.counts.Done++
		}
	}
	if co.remaining == 0 {
		select {
		case <-co.done:
		default:
			close(co.done)
		}
	}
	return okAck(accepted)
}

// doneFuncsLocked / doneProbesLocked fold the cache-resolved prefix into
// the progress totals. Callers hold co.mu.
func (co *Coordinator) doneFuncsLocked() int {
	n := 0
	for _, fr := range co.reports {
		if fr != nil {
			n++
		}
	}
	return n
}

func (co *Coordinator) doneProbesLocked() int {
	n := 0
	for _, fr := range co.reports {
		if fr != nil {
			n += fr.Probes
		}
	}
	return n
}

// handleHeartbeat extends the lease of a shard whose holder is still
// alive and probing.
func (co *Coordinator) handleHeartbeat(data []byte) []byte {
	hb, err := xmlrep.Unmarshal[xmlrep.Heartbeat](data)
	if err != nil {
		return errAck(fmt.Sprintf("bad heartbeat: %v", err))
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.touchWorker(hb.Worker)
	if hb.Shard >= 0 && hb.Shard < len(co.shards) {
		s := &co.shards[hb.Shard]
		if s.leased && s.worker == hb.Worker && s.attempt == hb.Attempt {
			s.deadline = time.Now().Add(co.leaseTimeout)
		}
	}
	return okAck(0)
}

// WorkerStats snapshots the per-worker accounting, sorted by name.
func (co *Coordinator) WorkerStats() []WorkerStat {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStat, 0, len(co.workers))
	for _, ws := range co.workers {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Shards snapshots the lease-table counters.
func (co *Coordinator) Shards() ShardCounts {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.counts
}

// Remaining returns how many functions still lack a result.
func (co *Coordinator) Remaining() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.remaining
}

// Wait blocks until every function has a result, then merges the
// reports in canonical function order — the merge RunLibrary performs, so
// the LibReport (and any document rendered from it) is byte-identical to
// a local sweep regardless of worker count, crashes, or re-leases. It
// returns an error if the coordinator was closed before the sweep
// completed.
func (co *Coordinator) Wait() (*LibReport, *CampaignStats, error) {
	select {
	case <-co.done:
	case <-co.closed:
		select {
		case <-co.done: // completed and closed raced; completion wins
		default:
			return nil, nil, fmt.Errorf("inject: coordinator closed with %d function(s) unresolved", co.Remaining())
		}
	}
	co.mu.Lock()
	defer co.mu.Unlock()

	names := make([]string, 0, len(co.workers))
	for name := range co.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := newCampaignStats(len(names), len(co.plan.funcs))
	for i, name := range names {
		stats.WorkerBusy[i] = co.workers[name].Busy
	}
	return co.camp.mergeReports(co.plan, co.reports, co.cached, co.wall, stats, co.start), stats, nil
}

// Drain keeps the coordinator serving after the sweep completes, until
// every worker that ever contacted it has been handed a Done lease (so
// workers exit cleanly instead of dialing a dead port) or the timeout
// expires (crashed workers never come back for their dismissal). Call it
// between Wait and Close.
func (co *Coordinator) Drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		co.mu.Lock()
		all := true
		for name := range co.workers {
			if !co.dismissed[name] {
				all = false
				break
			}
		}
		co.mu.Unlock()
		if all || time.Now().After(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
