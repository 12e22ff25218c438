// Registry client: the read-through/write-back layer between a
// campaign's local cache and a shared campaign-cache registry (see
// collect.Registry). Before a sweep the campaign batch-fetches every
// locally missing key from the registry and folds verified hits into the
// local cache, so only genuinely novel functions are probed (or, in the
// distributed fabric, leased); freshly derived entries are pushed back
// asynchronously so the next runner anywhere in the fleet inherits
// them.
//
// The registry is an accelerator, never a dependency: any transport
// failure degrades the campaign to local-only operation with counted
// warnings — a down registry costs probes, not a failed sweep. Served
// entries are trusted only after their per-entry integrity sum and a
// full decode verify; a corrupted entry is discarded and the function
// re-probed, the same worst case as a cold cache.
package inject

import (
	"fmt"
	"os"
	"sync"
	"time"

	"healers/internal/collect"
	"healers/internal/xmlrep"
)

// RegistryCacheStats are the registry layer's counters, snapshotted for
// the CLI summary and /metrics.
type RegistryCacheStats struct {
	// RemoteHits counts functions satisfied by verified registry
	// entries; RemoteMisses counts keys the registry did not hold (each
	// becomes a local probe sweep).
	RemoteHits   int
	RemoteMisses int
	// Corrupt counts served entries discarded because their integrity
	// sum, key, config, or decode failed verification. Each is also a
	// miss — the function re-probes.
	Corrupt int
	// PutFuncs counts entries successfully pushed back; PutDropped
	// counts entries that never reached the registry (degraded mode or a
	// failed push).
	PutFuncs   int
	PutDropped int
	// Errors counts transport failures; Degraded is set once the layer
	// has given up on the registry for the rest of the run.
	Errors   int
	Degraded bool
}

// RegistryCache is the client side of a shared campaign-cache registry:
// batch read-through fetches into a local Cache plus an asynchronous
// write-back queue. Attach one to a campaign with WithRegistry (or a
// worker with WithWorkerRegistry). All methods are safe for concurrent
// use; Close (or at least Flush) it before exiting so queued pushes
// drain.
type RegistryCache struct {
	addr string
	id   string

	// fetchMu serializes fetchInto callers on the shared get client
	// (collect.Client is single-goroutine); it is held across network
	// I/O, so it is never nested with mu.
	fetchMu sync.Mutex
	getCl   *collect.Client // synchronous fetch path, under fetchMu
	putCl   *collect.Client // push path (owned by the drainer goroutine)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []xmlrep.CacheFuncXML
	inflight int // entries the drainer has taken but not finished
	closed   bool
	degraded bool
	stats    RegistryCacheStats
	drained  sync.WaitGroup
}

// NewRegistryCache builds a registry client for the registry at addr
// and starts its push drainer.
func NewRegistryCache(addr string) *RegistryCache {
	host, _ := os.Hostname()
	if host == "" {
		host = "runner"
	}
	rc := &RegistryCache{
		addr: addr,
		id:   fmt.Sprintf("%s-%d", host, os.Getpid()),
	}
	// collect.Client is single-goroutine: the synchronous fetch path
	// and the asynchronous push drainer each own one.
	rc.getCl = &collect.Client{Addr: addr, RetryMax: 2}
	rc.putCl = &collect.Client{Addr: addr, RetryMax: 2}
	rc.cond = sync.NewCond(&rc.mu)
	rc.drained.Add(1)
	go rc.drain()
	return rc
}

// Stats snapshots the layer's counters.
func (rc *RegistryCache) Stats() RegistryCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// degradeLocked switches the layer to local-only operation. Callers
// hold rc.mu.
func (rc *RegistryCache) degradeLocked() {
	rc.stats.Errors++
	rc.degraded = true
	rc.stats.Degraded = true
}

// fetchInto asks the registry for keys and folds every verified answer
// entry into local under config. Requested keys the registry does not
// hold — or whose entries fail verification — count as misses and are
// left for probing. Transport failures degrade the layer; no error ever
// propagates to the sweep.
func (rc *RegistryCache) fetchInto(local *Cache, config string, keys []string) {
	if len(keys) == 0 || local == nil {
		return
	}
	rc.mu.Lock()
	if rc.degraded {
		rc.mu.Unlock()
		return
	}
	rc.mu.Unlock()

	rc.fetchMu.Lock()
	ans, err := collect.RegistryFetch(rc.getCl, rc.id, keys)
	rc.fetchMu.Unlock()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err != nil {
		rc.degradeLocked()
		return
	}
	requested := make(map[string]bool, len(keys))
	for _, k := range keys {
		requested[k] = true
	}
	hits := 0
	for i := range ans.Funcs {
		e := &ans.Funcs[i]
		// Trust nothing about a served entry until it proves itself:
		// requested key, matching config, intact integrity sum, and a
		// clean decode. Anything less re-probes.
		if !requested[e.Key] || e.Config != config || e.Sum != xmlrep.Checksum(&e.CacheFuncXML) {
			rc.stats.Corrupt++
			continue
		}
		fr, err := reportFromXML(&e.CacheFuncXML)
		if err != nil {
			rc.stats.Corrupt++
			continue
		}
		if err := local.put(e.Name, config, e.Key, fr); err != nil {
			// A failing local checkpoint flush is the local cache's
			// problem on the next put; the fetched entry still landed.
			break
		}
		hits++
	}
	rc.stats.RemoteHits += hits
	rc.stats.RemoteMisses += len(keys) - hits
}

// enqueue queues one freshly derived entry for asynchronous push. In
// degraded mode the entry is counted as dropped immediately.
func (rc *RegistryCache) enqueue(fx xmlrep.CacheFuncXML) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed || rc.degraded {
		rc.stats.PutDropped++
		return
	}
	rc.queue = append(rc.queue, fx)
	rc.cond.Broadcast()
}

// drain is the push goroutine: it batches whatever has queued into one
// registry put per wakeup, so a sweep's worth of entries costs a few
// round trips, not one per function.
func (rc *RegistryCache) drain() {
	defer rc.drained.Done()
	for {
		rc.mu.Lock()
		for len(rc.queue) == 0 && !rc.closed {
			rc.cond.Wait()
		}
		if len(rc.queue) == 0 && rc.closed {
			rc.mu.Unlock()
			return
		}
		batch := rc.queue
		rc.queue = nil
		rc.inflight = len(batch)
		degraded := rc.degraded
		rc.mu.Unlock()

		var pushErr error
		if !degraded {
			ack, err := collect.RegistryPush(rc.putCl, rc.id, HierarchyVersion(), batch)
			switch {
			case err != nil:
				pushErr = err
			case !ack.OK:
				pushErr = fmt.Errorf("registry refused put: %s", ack.Reason)
			}
		}

		rc.mu.Lock()
		rc.inflight = 0
		switch {
		case degraded:
			rc.stats.PutDropped += len(batch)
		case pushErr != nil:
			rc.degradeLocked()
			rc.stats.PutDropped += len(batch)
		default:
			rc.stats.PutFuncs += len(batch)
		}
		rc.cond.Broadcast()
		rc.mu.Unlock()
	}
}

// Flush blocks until every queued push has been attempted (not
// necessarily accepted — degraded pushes resolve as drops) or the
// timeout expires; it reports whether the queue fully drained.
func (rc *RegistryCache) Flush(timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() {
		rc.mu.Lock()
		rc.cond.Broadcast()
		rc.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for len(rc.queue) > 0 || rc.inflight > 0 {
		if time.Now().After(deadline) {
			return false
		}
		rc.cond.Wait()
	}
	return true
}

// Close flushes queued pushes (bounded), stops the drainer, and closes
// the wire clients.
func (rc *RegistryCache) Close() error {
	rc.Flush(10 * time.Second)
	rc.mu.Lock()
	rc.closed = true
	rc.cond.Broadcast()
	rc.mu.Unlock()
	rc.drained.Wait()
	rc.getCl.Close()
	return rc.putCl.Close()
}

// WithRegistry attaches a registry client to a campaign: every sweep
// (library, single function, distributed coordinator and worker)
// batch-fetches locally missing entries from the registry before probing
// and pushes freshly derived ones back. A nil client is ignored. Campaigns without a local cache
// get an in-memory one, so registry hits still have somewhere to land.
func WithRegistry(rc *RegistryCache) CampaignOption {
	return func(c *Campaign) {
		if rc != nil {
			c.registry = rc
		}
	}
}

// warmFromRegistry batch-fetches registry entries for every given cache
// key (the planned functions' funcKeys under config) the local cache
// cannot satisfy. After it returns, a cache lookup hits for every
// function the fleet has already derived — the engines then probe (or
// lease) only genuine global misses.
func (c *Campaign) warmFromRegistry(config string, keys []string) {
	if c.registry == nil || c.cache == nil {
		return
	}
	var missing []string
	for _, key := range keys {
		if c.cache.lookup(key, config) == nil {
			missing = append(missing, key)
		}
	}
	c.registry.fetchInto(c.cache, config, missing)
}

// cachePut records one freshly derived report in the local cache and,
// when a registry is attached, queues it for push — the single
// write-back point shared by every sweep. Without either it does nothing.
func (c *Campaign) cachePut(name, config, key string, fr *FuncReport) error {
	if c.cache != nil {
		if err := c.cache.put(name, config, key, fr); err != nil {
			return err
		}
	}
	if c.registry != nil {
		c.registry.enqueue(reportToXML(name, key, config, fr))
	}
	return nil
}
