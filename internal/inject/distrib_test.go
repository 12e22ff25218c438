package inject

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/cmath"
	"healers/internal/collect"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

// startCoordinator plans soname's sweep on a fresh system and serves it
// on an ephemeral loopback port.
func startCoordinator(t *testing.T, mkSys func(*testing.T) *simelf.System, soname string, nshards int, copts []CoordOption, opts ...CampaignOption) *Coordinator {
	t.Helper()
	c, err := New(mkSys(t), soname, opts...)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(c, nshards, copts...)
	if err := co.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// spawnWorkers runs n workers — each on its own fresh system, standing
// in for separate OS processes — and returns a join function.
func spawnWorkers(t *testing.T, mkSys func(*testing.T) *simelf.System, addr string, n int, opts ...WorkerOption) func() []*WorkerSummary {
	t.Helper()
	var wg sync.WaitGroup
	sums := make([]*WorkerSummary, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wopts := append([]WorkerOption{WithWorkerID(string(rune('a' + i)))}, opts...)
			sums[i], errs[i] = RunWorker(mkSys(t), addr, wopts...)
		}(i)
	}
	return func() []*WorkerSummary {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		return sums
	}
}

// sequentialReport is the reference run every distributed result must
// match byte for byte.
func sequentialReport(t *testing.T, mkSys func(*testing.T) *simelf.System, soname string) *LibReport {
	t.Helper()
	c, err := New(mkSys(t), soname)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := c.RunLibrary()
	if err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestDistributedMatchesSequential is the fabric's core promise: for any
// worker count and shard count, the merged report — and the robust-API
// XML rendered from it — is byte-identical to a sequential sweep.
func TestDistributedMatchesSequential(t *testing.T) {
	seq := sequentialReport(t, libmSystem, cmath.Soname)
	for _, tc := range []struct{ workers, shards int }{
		{1, 1}, {2, 3}, {4, 0},
	} {
		co := startCoordinator(t, libmSystem, cmath.Soname, tc.shards, nil)
		join := spawnWorkers(t, libmSystem, co.Addr(), tc.workers)
		lr, stats, err := co.Wait()
		if err != nil {
			t.Fatalf("workers=%d shards=%d: Wait: %v", tc.workers, tc.shards, err)
		}
		sums := join()
		assertIdentical(t, seq, lr)
		if stats.Probes != seq.TotalProbes {
			t.Errorf("workers=%d: executed %d probes, want %d", tc.workers, stats.Probes, seq.TotalProbes)
		}
		var workerProbes int
		for _, s := range sums {
			workerProbes += s.Probes
		}
		if workerProbes < seq.TotalProbes {
			t.Errorf("workers=%d: workers probed %d total, want >= %d", tc.workers, workerProbes, seq.TotalProbes)
		}
	}
}

// TestWorkerCrashReleasesLease kills a worker mid-shard: a fake worker
// takes the only lease and vanishes without sending a single result. The
// lease must time out, the shard must be re-leased to a live worker, and
// the merged report must still match the sequential run exactly.
func TestWorkerCrashReleasesLease(t *testing.T) {
	seq := sequentialReport(t, libmSystem, cmath.Soname)
	co := startCoordinator(t, libmSystem, cmath.Soname, 1,
		[]CoordOption{WithLeaseTimeout(200 * time.Millisecond), WithStragglerAfter(0)})

	// The casualty: lease the shard, then disappear.
	cl := collect.NewClient(co.Addr())
	resp, err := cl.Call(&xmlrep.WorkRequest{Worker: "doomed", Hierarchy: HierarchyVersion()})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := xmlrep.Unmarshal[xmlrep.WorkLease](resp)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Done || len(lease.Funcs) == 0 {
		t.Fatalf("doomed worker got no work: %+v", lease)
	}
	cl.Close()

	join := spawnWorkers(t, libmSystem, co.Addr(), 1)
	lr, _, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	join()
	assertIdentical(t, seq, lr)
	if counts := co.Shards(); counts.Releases == 0 {
		t.Error("no lease-timeout release recorded after the worker crash")
	}
}

// TestDuplicateResultsDeduped replays a result document — the retry-
// after-lost-response case — and requires idempotent merging: the first
// copy is accepted, the second acknowledged but dropped, and the final
// report is unaffected.
func TestDuplicateResultsDeduped(t *testing.T) {
	seq := sequentialReport(t, libmSystem, cmath.Soname)
	// The short lease lets the live worker pick up the abandoned rest of
	// the shard quickly once the replayer goes quiet.
	co := startCoordinator(t, libmSystem, cmath.Soname, 1,
		[]CoordOption{WithLeaseTimeout(300 * time.Millisecond)})

	cl := collect.NewClient(co.Addr())
	defer cl.Close()
	resp, err := cl.Call(&xmlrep.WorkRequest{Worker: "replayer", Hierarchy: HierarchyVersion()})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := xmlrep.Unmarshal[xmlrep.WorkLease](resp)
	if err != nil {
		t.Fatal(err)
	}

	// Sweep the first leased function locally and build its result doc.
	sys := libmSystem(t)
	camp, err := New(sys, cmath.Soname)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{id: "replayer", sys: sys, heartbeat: time.Hour, lastContact: time.Now()}
	entry, _, err := w.sweepFunc(camp, lease, lease.Funcs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &xmlrep.WorkResult{
		Worker: "replayer", Shard: lease.Shard, Attempt: lease.Attempt,
		Config: lease.Config, Funcs: []xmlrep.WorkFuncXML{entry},
	}
	xmlrep.Seal(res)

	for i, want := range []int{1, 0} {
		resp, err := cl.Call(res)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := xmlrep.Unmarshal[xmlrep.WorkAck](resp)
		if err != nil {
			t.Fatal(err)
		}
		if !ack.OK || ack.Accepted != want {
			t.Fatalf("send %d: ack = %+v, want OK with %d accepted", i+1, ack, want)
		}
	}

	// A live worker finishes the rest; the replayed function must appear
	// exactly once, with the replayer's (first) result.
	join := spawnWorkers(t, libmSystem, co.Addr(), 1)
	lr, stats, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	join()
	assertIdentical(t, seq, lr)
	if stats.Probes != seq.TotalProbes {
		t.Errorf("executed probes = %d, want %d (duplicate double-counted?)", stats.Probes, seq.TotalProbes)
	}
}

// TestStragglerReissue: a shard held by a live-but-stalled worker past
// the straggler deadline is speculatively re-issued to an idle worker,
// so one stuck process cannot stall the sweep — even though its lease
// never expires.
func TestStragglerReissue(t *testing.T) {
	seq := sequentialReport(t, libmSystem, cmath.Soname)
	co := startCoordinator(t, libmSystem, cmath.Soname, 1,
		[]CoordOption{WithLeaseTimeout(time.Hour), WithStragglerAfter(50 * time.Millisecond)})

	cl := collect.NewClient(co.Addr())
	defer cl.Close()
	if _, err := cl.Call(&xmlrep.WorkRequest{Worker: "stalled", Hierarchy: HierarchyVersion()}); err != nil {
		t.Fatal(err)
	}

	join := spawnWorkers(t, libmSystem, co.Addr(), 1)
	lr, _, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	join()
	assertIdentical(t, seq, lr)
	if counts := co.Shards(); counts.Stragglers == 0 {
		t.Error("no speculative straggler re-issue recorded")
	}
}

// TestHeartbeatExtendsLease drives the handler directly: a heartbeat
// from the leaseholder pushes the lease deadline out; one from anyone
// else does not.
func TestHeartbeatExtendsLease(t *testing.T) {
	c, err := New(libmSystem(t), cmath.Soname)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(c, 1, WithLeaseTimeout(time.Minute))
	co.handleRequest(xmlrep.MustMarshal(&xmlrep.WorkRequest{Worker: "w1", Hierarchy: HierarchyVersion()}))
	before := co.shards[0].deadline

	co.handleHeartbeat(xmlrep.MustMarshal(&xmlrep.Heartbeat{Worker: "w2", Shard: 0, Attempt: 1}))
	if !co.shards[0].deadline.Equal(before) {
		t.Error("a non-holder's heartbeat moved the lease deadline")
	}
	time.Sleep(5 * time.Millisecond)
	co.handleHeartbeat(xmlrep.MustMarshal(&xmlrep.Heartbeat{Worker: "w1", Shard: 0, Attempt: 1}))
	if !co.shards[0].deadline.After(before) {
		t.Error("the holder's heartbeat did not extend the lease")
	}
}

// TestCoordinatorRefusesForeignResults drives the validation paths: a
// hierarchy-mismatched worker is turned away, and result documents with
// a wrong config or corrupted checksum are rejected, not merged.
func TestCoordinatorRefusesForeignResults(t *testing.T) {
	c, err := New(libmSystem(t), cmath.Soname)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(c, 1)
	refused := func(resp []byte, wantSub string) {
		t.Helper()
		ack, err := xmlrep.Unmarshal[xmlrep.WorkAck](resp)
		if err != nil {
			t.Fatalf("response is not an ack: %v", err)
		}
		if ack.OK || !strings.Contains(ack.Reason, wantSub) {
			t.Errorf("ack = %+v, want refusal mentioning %q", ack, wantSub)
		}
	}

	refused(co.handleRequest(xmlrep.MustMarshal(&xmlrep.WorkRequest{Worker: "old", Hierarchy: "v0-stale"})), "hierarchy")

	res := &xmlrep.WorkResult{Worker: "w", Config: "deadbeef"}
	xmlrep.Seal(res)
	refused(co.handleResult(xmlrep.MustMarshal(res)), "config")

	res = &xmlrep.WorkResult{Worker: "w", Config: co.config, Checksum: "bogus"}
	refused(co.handleResult(xmlrep.MustMarshal(res)), "checksum")

	if co.doneFuncsLocked() != 0 {
		t.Error("a refused result was merged")
	}
}

// TestRefusedResultEarnsNoCredit: when the coordinator's cache cannot
// record a result (its checkpoint flush fails), the result is refused and
// neither the worker's counters, the unresolved count nor the cache's
// entries move — however often the worker resends it.
func TestRefusedResultEarnsNoCredit(t *testing.T) {
	path := cachePath(t)
	cache := openTestCache(t, path)
	cache.SetAutoFlush(1)
	c, err := New(libmSystem(t), cmath.Soname, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(c, 1)
	// A non-empty directory where the cache file goes: every flush's
	// rename onto it fails.
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}

	lease, err := xmlrep.Unmarshal[xmlrep.WorkLease](co.handleRequest(xmlrep.MustMarshal(&xmlrep.WorkRequest{Worker: "w", Hierarchy: HierarchyVersion()})))
	if err != nil {
		t.Fatal(err)
	}
	sys := libmSystem(t)
	camp, err := New(sys, cmath.Soname)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{id: "w", sys: sys, heartbeat: time.Hour, lastContact: time.Now()}
	entry, _, err := w.sweepFunc(camp, lease, lease.Funcs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &xmlrep.WorkResult{
		Worker: "w", Shard: lease.Shard, Attempt: lease.Attempt,
		Config: lease.Config, Funcs: []xmlrep.WorkFuncXML{entry},
	}
	xmlrep.Seal(res)

	before := co.Remaining()
	for i := 1; i <= 2; i++ {
		ack, err := xmlrep.Unmarshal[xmlrep.WorkAck](co.handleResult(xmlrep.MustMarshal(res)))
		if err != nil {
			t.Fatal(err)
		}
		if ack.OK || !strings.Contains(ack.Reason, "recording result") {
			t.Fatalf("send %d: ack = %+v, want a refusal naming the failed record", i, ack)
		}
	}
	if got := co.Remaining(); got != before {
		t.Errorf("Remaining() = %d after refused results, want %d", got, before)
	}
	// The failed flush left the cache as it was: the refused result is
	// not kept for a later Save to persist.
	if got := cache.Len(); got != 0 {
		t.Errorf("cache.Len() = %d after refused results, want 0", got)
	}
	for _, ws := range co.WorkerStats() {
		if ws.Funcs != 0 || ws.Probes != 0 || ws.Cached != 0 || ws.Busy != 0 {
			t.Errorf("worker %s credited for refused results: %+v", ws.Name, ws)
		}
	}
}

// TestDistributedCacheFolds: results streamed back by workers must land
// in the coordinator's campaign cache, so a later run — sequential or
// distributed — is served entirely from cache.
func TestDistributedCacheFolds(t *testing.T) {
	path := cachePath(t)
	co := startCoordinator(t, libcSystem, clib.LibcSoname, 3, nil, WithCache(openTestCache(t, path)))
	join := spawnWorkers(t, libcSystem, co.Addr(), 2)
	first, _, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	join()
	if err := co.camp.cache.Save(); err != nil {
		t.Fatal(err)
	}

	warm, stats := runCached(t, libcSystem, clib.LibcSoname, openTestCache(t, path))
	assertIdentical(t, first, warm)
	if stats.CachedFuncs != len(warm.Funcs) || stats.Probes != 0 {
		t.Errorf("warm run after distributed sweep: %d/%d cached, %d probes executed",
			stats.CachedFuncs, len(warm.Funcs), stats.Probes)
	}

	// And a warm *coordinator* resolves everything locally: Wait returns
	// without any worker connecting.
	co2 := startCoordinator(t, libcSystem, clib.LibcSoname, 3, nil, WithCache(openTestCache(t, path)))
	again, stats2, err := co2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, first, again)
	if stats2.CachedFuncs != len(again.Funcs) {
		t.Errorf("warm coordinator probed: %d/%d cached", stats2.CachedFuncs, len(again.Funcs))
	}
}

// TestWorkerLocalCacheReported: a worker with a warm local cache reports
// results without re-probing, and the coordinator still merges a full,
// correct report.
func TestWorkerLocalCacheReported(t *testing.T) {
	seq := sequentialReport(t, libmSystem, cmath.Soname)

	// Warm a cache with a plain sequential run; runCached does not save,
	// so persist explicitly like the CLI does.
	path := cachePath(t)
	warmCache := openTestCache(t, path)
	runCached(t, libmSystem, cmath.Soname, warmCache)
	if err := warmCache.Save(); err != nil {
		t.Fatal(err)
	}

	co := startCoordinator(t, libmSystem, cmath.Soname, 2, nil)
	join := spawnWorkers(t, libmSystem, co.Addr(), 1, WithWorkerCache(openTestCache(t, path)))
	lr, stats, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sums := join()
	assertIdentical(t, seq, lr)
	if sums[0].Cached != len(seq.Funcs) || sums[0].Probes != 0 {
		t.Errorf("worker summary = %+v, want all %d functions from local cache", sums[0], len(seq.Funcs))
	}
	if stats.Probes != 0 || stats.CachedFuncs != len(seq.Funcs) {
		t.Errorf("stats = %d probes, %d cached; want 0 probes, all cached", stats.Probes, stats.CachedFuncs)
	}
}
