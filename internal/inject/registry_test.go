package inject

import (
	"testing"
	"time"

	"healers/internal/cmath"
	"healers/internal/collect"
	"healers/internal/xmlrep"
)

// startRegistry serves a fresh directory-backed registry on an
// ephemeral loopback port.
func startRegistry(t *testing.T) (*collect.Registry, string) {
	t.Helper()
	reg, err := collect.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.Serve("127.0.0.1:0", collect.WithHandler(reg.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return reg, srv.Addr()
}

// newTestRegistryCache builds a registry client that is closed when the
// test ends.
func newTestRegistryCache(t *testing.T, addr string) *RegistryCache {
	t.Helper()
	rc := NewRegistryCache(addr)
	t.Cleanup(func() { rc.Close() })
	return rc
}

// runWithRegistry sweeps soname on a fresh system with a registry
// client over an in-memory local cache.
func runWithRegistry(t *testing.T, rc *RegistryCache, extra ...CampaignOption) (*LibReport, *CampaignStats) {
	t.Helper()
	var stats *CampaignStats
	opts := append([]CampaignOption{
		WithRegistry(rc),
		WithStatsSink(func(s *CampaignStats) { stats = s }),
	}, extra...)
	c, err := New(libmSystem(t), cmath.Soname, opts...)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := c.RunLibrary()
	if err != nil {
		t.Fatalf("registry-backed sweep: %v", err)
	}
	return lr, stats
}

// TestRegistryWarmSweepByteIdentical is the tentpole's acceptance test:
// runner A probes cold and pushes everything to the registry; runner B
// — fresh local cache, same registry — performs zero probes (remote hit
// counter == plan size) and renders a byte-identical report and
// robust-API document.
func TestRegistryWarmSweepByteIdentical(t *testing.T) {
	cold := sequentialReport(t, libmSystem, cmath.Soname)
	reg, addr := startRegistry(t)

	rcA := newTestRegistryCache(t, addr)
	a, aStats := runWithRegistry(t, rcA)
	assertIdentical(t, cold, a)
	if aStats.Probes != cold.TotalProbes {
		t.Fatalf("runner A executed %d probes, want cold's %d", aStats.Probes, cold.TotalProbes)
	}
	if !rcA.Flush(10 * time.Second) {
		t.Fatal("runner A's registry pushes did not drain")
	}
	if st := rcA.Stats(); st.PutFuncs != len(cold.Funcs) || st.Degraded {
		t.Fatalf("runner A registry stats = %+v; want %d pushed funcs", st, len(cold.Funcs))
	}
	if st := reg.Stats(); st.Entries != len(cold.Funcs) {
		t.Fatalf("registry holds %d entries, want %d", st.Entries, len(cold.Funcs))
	}

	rcB := newTestRegistryCache(t, addr)
	b, bStats := runWithRegistry(t, rcB)
	assertIdentical(t, cold, b)
	if bStats.Probes != 0 || bStats.CachedFuncs != len(cold.Funcs) {
		t.Errorf("runner B executed %d probes / cached %d funcs; want 0 / %d",
			bStats.Probes, bStats.CachedFuncs, len(cold.Funcs))
	}
	if st := rcB.Stats(); st.RemoteHits != len(cold.Funcs) || st.RemoteMisses != 0 || st.Corrupt != 0 {
		t.Errorf("runner B registry stats = %+v; want every function a remote hit", st)
	}
}

// TestRegistryCoordinatorPlansZeroLeases: a coordinator planning
// against a populated registry resolves every function during planning
// — the sweep completes without any worker, and the merged report is
// still byte-identical.
func TestRegistryCoordinatorPlansZeroLeases(t *testing.T) {
	cold := sequentialReport(t, libmSystem, cmath.Soname)
	_, addr := startRegistry(t)

	rc := newTestRegistryCache(t, addr)
	runWithRegistry(t, rc)
	if !rc.Flush(10 * time.Second) {
		t.Fatal("registry pushes did not drain")
	}

	c, err := New(libmSystem(t), cmath.Soname, WithRegistry(newTestRegistryCache(t, addr)))
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(c, 4)
	if co.Remaining() != 0 {
		t.Fatalf("coordinator still leases %d functions against a populated registry", co.Remaining())
	}
	lr, stats, err := co.Wait() // completes without Serve: nothing to lease
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, cold, lr)
	if stats.Probes != 0 {
		t.Errorf("coordinator executed %d probes, want 0", stats.Probes)
	}
}

// TestRegistryWorkersWarmFromRegistry: workers attached to a populated
// registry answer their leases without probing.
func TestRegistryWorkersWarmFromRegistry(t *testing.T) {
	cold := sequentialReport(t, libmSystem, cmath.Soname)
	_, addr := startRegistry(t)
	rc := newTestRegistryCache(t, addr)
	runWithRegistry(t, rc)
	if !rc.Flush(10 * time.Second) {
		t.Fatal("registry pushes did not drain")
	}

	// Coordinator has no cache and no registry: every function goes to
	// the wire; the workers' registry layer answers them all.
	co := startCoordinator(t, libmSystem, cmath.Soname, 3, nil)
	join := spawnWorkers(t, libmSystem, co.Addr(), 2,
		WithWorkerRegistry(newTestRegistryCache(t, addr)))
	lr, _, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sums := join()
	assertIdentical(t, cold, lr)
	probed := 0
	for _, s := range sums {
		probed += s.Probes
	}
	if probed != 0 {
		t.Errorf("workers executed %d probes against a populated registry, want 0", probed)
	}
}

// TestRegistryCorruptEntryDiscardedAndReprobed: a registry serving
// entries whose per-entry integrity sum does not match their content
// must not poison the sweep — the client discards each corrupted entry,
// counts it, and re-probes the function.
func TestRegistryCorruptEntryDiscardedAndReprobed(t *testing.T) {
	cold := sequentialReport(t, libmSystem, cmath.Soname)

	// The config hash the campaign will request under (fresh systems
	// with the same target and no stdin/preloads share it).
	probe, err := New(libmSystem(t), cmath.Soname)
	if err != nil {
		t.Fatal(err)
	}
	config := probe.configHash()

	// A hostile registry: answers every get with plausible entries whose
	// sums are wrong.
	srv, err := collect.Serve("127.0.0.1:0", collect.WithHandler(collect.Handler{
		xmlrep.KindRegistryGet: func(data []byte) []byte {
			req, err := xmlrep.Unmarshal[xmlrep.RegistryGet](data)
			if err != nil {
				t.Errorf("hostile registry: %v", err)
				return xmlrep.MustMarshal(&xmlrep.RegistryAck{Reason: err.Error()})
			}
			ans := &xmlrep.RegistryAnswer{}
			for _, k := range req.Keys {
				ans.Found = append(ans.Found, k)
				ans.Funcs = append(ans.Funcs, xmlrep.RegistryEntryXML{
					CacheFuncXML: xmlrep.CacheFuncXML{
						Name: "fake", Key: k, Config: config, Probes: 1,
						Results: []xmlrep.CacheProbeXML{{Probe: "call", Param: -1, Outcome: "ok"}},
					},
					Sum: "corrupted-in-storage",
				})
			}
			xmlrep.Seal(ans)
			return xmlrep.MustMarshal(ans)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc := newTestRegistryCache(t, srv.Addr())
	lr, stats := runWithRegistry(t, rc)
	assertIdentical(t, cold, lr)
	if stats.Probes != cold.TotalProbes {
		t.Errorf("corrupted entries short-circuited probing: %d probes, want %d", stats.Probes, cold.TotalProbes)
	}
	st := rc.Stats()
	if st.Corrupt != len(cold.Funcs) || st.RemoteHits != 0 {
		t.Errorf("registry stats = %+v; want every entry counted corrupt, zero hits", st)
	}
}

// TestRegistryUnreachableDegradesToLocal: a dead registry address must
// cost a counted warning, never a failed sweep — the campaign degrades
// to local-only and still produces the full report.
func TestRegistryUnreachableDegradesToLocal(t *testing.T) {
	cold := sequentialReport(t, libmSystem, cmath.Soname)

	// An address that refuses connections: bind, then close.
	srv, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()

	rc := newTestRegistryCache(t, addr)
	lr, stats := runWithRegistry(t, rc)
	assertIdentical(t, cold, lr)
	if stats.Probes != cold.TotalProbes {
		t.Errorf("degraded sweep executed %d probes, want %d", stats.Probes, cold.TotalProbes)
	}
	rc.Flush(5 * time.Second)
	st := rc.Stats()
	if !st.Degraded || st.Errors == 0 {
		t.Errorf("registry stats = %+v; want degraded with counted errors", st)
	}
	if st.RemoteHits != 0 || st.PutFuncs != 0 {
		t.Errorf("registry stats = %+v; nothing should have reached a dead registry", st)
	}
}
