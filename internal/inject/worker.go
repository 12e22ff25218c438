package inject

import (
	"fmt"
	"os"
	"slices"
	"time"

	"healers/internal/collect"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

// DefaultHeartbeatEvery is how often a worker lets the coordinator know
// it is still probing a long function (checked between probes).
const DefaultHeartbeatEvery = 5 * time.Second

// WorkerSummary is what one worker contributed to a distributed sweep.
type WorkerSummary struct {
	Worker string
	// Leases counts granted (non-empty) leases; Funcs and Probes what
	// the worker swept; Cached the functions served from its local
	// cache; Duplicates the results the coordinator had already seen.
	Leases     int
	Funcs      int
	Probes     int
	Cached     int
	Duplicates int
}

// WorkerOption configures RunWorker.
type WorkerOption func(*worker)

// WithWorkerID overrides the worker's self-reported name (default
// hostname-pid).
func WithWorkerID(id string) WorkerOption {
	return func(w *worker) { w.id = id }
}

// WithWorkerCache gives the worker a local campaign cache; hits are
// reported to the coordinator without re-probing, and misses it probes
// are recorded for the next run.
func WithWorkerCache(cache *Cache) WorkerOption {
	return func(w *worker) { w.cache = cache }
}

// WithWorkerRegistry layers a shared campaign-cache registry over the
// worker's local cache: each lease's functions are batch-fetched from
// the registry before probing (hits are reported to the coordinator
// without re-probing) and fresh derivations are pushed back. A nil
// client is ignored.
func WithWorkerRegistry(rc *RegistryCache) WorkerOption {
	return func(w *worker) { w.registry = rc }
}

type worker struct {
	id        string
	sys       *simelf.System
	cl        *collect.Client
	cache     *Cache
	registry  *RegistryCache
	heartbeat time.Duration

	// camp is rebuilt when a lease's campaign parameters change.
	camp       *Campaign
	campConfig string

	lastContact time.Time
	sum         WorkerSummary
}

// RunWorker joins the coordinator at addr and processes shard leases
// until the coordinator reports the sweep done: request a lease, sweep
// its functions through the ordinary campaign engine (local cache
// first), and stream one result document per function back — each
// doubling as a lease extension. Long functions heartbeat between
// probes. The loop is crash-oriented: any fatal acknowledgement from the
// coordinator (config or hierarchy mismatch, corrupt frames) aborts the
// worker with an error rather than silently dropping work.
func RunWorker(sys *simelf.System, addr string, opts ...WorkerOption) (*WorkerSummary, error) {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	w := &worker{
		id:        fmt.Sprintf("%s-%d", host, os.Getpid()),
		sys:       sys,
		heartbeat: DefaultHeartbeatEvery,
	}
	for _, o := range opts {
		o(w)
	}
	w.cl = collect.NewClient(addr)
	w.cl.RetryMax = 4
	defer w.cl.Close()
	w.sum.Worker = w.id

	for {
		lease, err := w.requestLease()
		if err != nil {
			return nil, err
		}
		switch {
		case lease.Done:
			return &w.sum, nil
		case len(lease.Funcs) == 0:
			retry := time.Duration(lease.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = 100 * time.Millisecond
			}
			time.Sleep(retry)
		default:
			w.sum.Leases++
			if err := w.runLease(lease); err != nil {
				return nil, err
			}
		}
	}
}

// requestLease asks the coordinator for work.
func (w *worker) requestLease() (*xmlrep.WorkLease, error) {
	resp, err := w.cl.Call(&xmlrep.WorkRequest{Worker: w.id, Hierarchy: HierarchyVersion()})
	if err != nil {
		return nil, fmt.Errorf("inject: worker %s: requesting lease: %w", w.id, err)
	}
	w.lastContact = time.Now()
	if kind, _ := xmlrep.Kind(resp); kind == xmlrep.KindWorkAck {
		ack, err := xmlrep.Unmarshal[xmlrep.WorkAck](resp)
		if err != nil {
			return nil, fmt.Errorf("inject: worker %s: bad ack: %w", w.id, err)
		}
		return nil, fmt.Errorf("inject: worker %s: coordinator refused: %s", w.id, ack.Reason)
	}
	lease, err := xmlrep.Unmarshal[xmlrep.WorkLease](resp)
	if err != nil {
		return nil, fmt.Errorf("inject: worker %s: bad lease: %w", w.id, err)
	}
	if xmlrep.Verify(lease) != nil {
		return nil, fmt.Errorf("inject: worker %s: lease checksum mismatch (corrupted frame)", w.id)
	}
	return lease, nil
}

// campaignFor rebuilds the local campaign when the lease's parameters
// differ from the cached one, and cross-checks the injector config hash:
// a worker whose campaign derives a different hash than the coordinator
// announced would probe under different semantics, so it must stop, not
// contribute incomparable results.
func (w *worker) campaignFor(lease *xmlrep.WorkLease) (*Campaign, error) {
	if w.camp == nil || w.camp.target != lease.Library ||
		w.camp.stdin != lease.Stdin || !slices.Equal(w.camp.preloads, lease.Preloads) {
		opts := []CampaignOption{WithStdin(lease.Stdin), WithPreloads(lease.Preloads...)}
		if w.cache != nil {
			opts = append(opts, WithCache(w.cache))
		}
		if w.registry != nil {
			opts = append(opts, WithRegistry(w.registry))
		}
		camp, err := New(w.sys, lease.Library, opts...)
		if err != nil {
			return nil, fmt.Errorf("inject: worker %s: building campaign: %w", w.id, err)
		}
		w.camp = camp
		w.campConfig = camp.configHash()
	}
	if w.campConfig != lease.Config {
		return nil, fmt.Errorf("inject: worker %s: injector config mismatch: local %s, lease %s",
			w.id, w.campConfig, lease.Config)
	}
	return w.camp, nil
}

// runLease sweeps every function of one lease, streaming results.
func (w *worker) runLease(lease *xmlrep.WorkLease) error {
	camp, err := w.campaignFor(lease)
	if err != nil {
		return err
	}
	lib, _ := w.sys.Library(lease.Library)
	// Warm the whole lease from the shared registry in one batch before
	// probing anything: functions another runner already derived are
	// answered from the fetched entries and reported as cache hits.
	var keys []string
	for _, name := range lease.Funcs {
		if proto := lib.Proto(name); proto != nil {
			keys = append(keys, funcKey(proto, lease.Config))
		}
	}
	camp.warmFromRegistry(lease.Config, keys)
	for done, name := range lease.Funcs {
		proto := lib.Proto(name)
		if proto == nil {
			return fmt.Errorf("inject: worker %s: leased unknown function %s", w.id, name)
		}
		entry, cached, err := w.sweepFunc(camp, lease, name, done)
		if err != nil {
			return err
		}
		res := &xmlrep.WorkResult{
			Worker:      w.id,
			Shard:       lease.Shard,
			Attempt:     lease.Attempt,
			Config:      lease.Config,
			CachedLocal: cached,
			Funcs:       []xmlrep.WorkFuncXML{entry},
		}
		xmlrep.Seal(res)
		resp, err := w.cl.Call(res)
		if err != nil {
			return fmt.Errorf("inject: worker %s: sending result for %s: %w", w.id, name, err)
		}
		w.lastContact = time.Now()
		ack, err := xmlrep.Unmarshal[xmlrep.WorkAck](resp)
		if err != nil {
			return fmt.Errorf("inject: worker %s: bad result ack: %w", w.id, err)
		}
		if !ack.OK {
			return fmt.Errorf("inject: worker %s: coordinator rejected result for %s: %s", w.id, name, ack.Reason)
		}
		w.sum.Funcs++
		if cached {
			w.sum.Cached++
		}
		if ack.Accepted == 0 {
			w.sum.Duplicates++
		}
	}
	return nil
}

// sweepFunc runs (or serves from local cache) one function's probe
// sweep, heartbeating between probes when the function runs long.
func (w *worker) sweepFunc(camp *Campaign, lease *xmlrep.WorkLease, name string, done int) (xmlrep.WorkFuncXML, bool, error) {
	lib, _ := w.sys.Library(lease.Library)
	proto := lib.Proto(name)
	fp := funcPlan{name: name, proto: proto, specs: planFunction(proto)}
	heartbeat := func() {
		if time.Since(w.lastContact) >= w.heartbeat {
			w.beat(lease, done)
		}
	}
	key := funcKey(proto, lease.Config)
	fr, cached, wall, err := camp.sweepFunction(&fp, lease.Config, key, heartbeat)
	if err != nil {
		return xmlrep.WorkFuncXML{}, false, fmt.Errorf("inject: worker %s: sweeping %s: %w", w.id, name, err)
	}
	if !cached {
		w.sum.Probes += fr.Probes
	}
	entry := xmlrep.WorkFuncXML{
		CacheFuncXML: reportToXML(name, key, lease.Config, fr),
		WallNS:       wall.Nanoseconds(),
	}
	return entry, cached, nil
}

// beat sends one heartbeat; failures are ignored — the result stream is
// the authoritative liveness signal, and a missed heartbeat at worst
// costs a redundant re-lease that dedup absorbs.
func (w *worker) beat(lease *xmlrep.WorkLease, done int) {
	w.lastContact = time.Now()
	_, _ = w.cl.Call(&xmlrep.Heartbeat{
		Worker: w.id, Shard: lease.Shard, Attempt: lease.Attempt, DoneFuncs: done,
	})
}
