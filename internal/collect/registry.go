// Registry: the shared campaign-cache service. A collector configured
// with one (healers-collectd -registry DIR) stores fault-injection cache
// entries content-addressed by their campaign-cache key — sha256 over
// (prototype, probe-hierarchy version, injector config) — and answers
// get/put exchanges from any runner, turning every machine's local
// probing into a fleet-wide amortized cost. The exchanges ride the
// ordinary collect framing via WithHandler, so the collector stays one
// process, one port, one wire protocol.
//
// Storage is a flat directory: one single-entry campaign-cache document
// per key, validated by its own checksum at load so a corrupted file is
// discarded (and deleted), never served. The in-memory index is bounded
// by the same doc/byte budgets as the collection server's document
// store, evicting oldest-first — a registry is a cache of reproducible
// results, so eviction costs a re-probe, not data.

package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"healers/internal/xmlrep"
)

// regEntry is one stored registry entry: the cache entry, its
// per-entry integrity sum (stamped on served answers), and the size of
// its on-disk document for the byte budget.
type regEntry struct {
	fn   xmlrep.CacheFuncXML
	sum  string
	size int64
}

// RegistryStats are the registry's counters, snapshotted for /metrics
// and exit summaries.
type RegistryStats struct {
	// Entries and Bytes are the current store occupancy.
	Entries int
	Bytes   int64
	// Hits and Misses count per-key lookup outcomes across all get
	// exchanges (one get with 10 keys moves the counters by 10).
	Hits   uint64
	Misses uint64
	// Puts counts entries stored; Known counts put entries the registry
	// already held (first write wins — the results are content-addressed,
	// so a duplicate is confirmation, not conflict).
	Puts  uint64
	Known uint64
	// Rejected counts refused put frames: malformed, unstamped, or
	// checksum-mismatched documents, none of which may poison the store.
	Rejected uint64
	// Evicted counts entries dropped by the doc/byte budgets.
	Evicted uint64
	// Corrupt counts stored files discarded at load because their
	// checksum or key did not validate.
	Corrupt uint64
}

// RegistryOption configures a Registry at NewRegistry time.
type RegistryOption func(*Registry)

// WithRegistryMaxDocs bounds retained entries; the oldest are evicted
// when the budget is exceeded. n <= 0 removes the bound.
func WithRegistryMaxDocs(n int) RegistryOption {
	return func(r *Registry) { r.maxDocs = n }
}

// WithRegistryMaxBytes bounds retained entry bytes (measured as the
// on-disk document size), evicting oldest-first like
// WithRegistryMaxDocs. n <= 0 removes the bound.
func WithRegistryMaxBytes(n int64) RegistryOption {
	return func(r *Registry) { r.maxBytes = n }
}

// Registry is a bounded, directory-backed, content-addressed store of
// campaign-cache entries. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	dir      string // "" = memory-only (tests)
	maxDocs  int
	maxBytes int64
	entries  map[string]*regEntry
	// order is the insertion order for oldest-first eviction; head
	// indexes its live prefix so eviction is O(1) amortized (the same
	// compaction scheme as the server's document store).
	order []string
	head  int
	bytes int64
	stats RegistryStats
}

// NewRegistry opens (creating if needed) a registry rooted at dir and
// loads every valid stored entry; files that fail validation are
// deleted and counted, not served. dir == "" builds a memory-only
// registry. Budgets default to the server's DefaultMaxDocs and
// DefaultMaxBytes.
func NewRegistry(dir string, opts ...RegistryOption) (*Registry, error) {
	r := &Registry{
		dir:      dir,
		maxDocs:  DefaultMaxDocs,
		maxBytes: DefaultMaxBytes,
		entries:  make(map[string]*regEntry),
	}
	for _, o := range opts {
		o(r)
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("collect: registry: %w", err)
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

// load indexes the directory's stored entries, oldest file first so a
// reloaded registry evicts in the same order it would have without the
// restart.
func (r *Registry) load() error {
	names, err := filepath.Glob(filepath.Join(r.dir, "*.xml"))
	if err != nil {
		return fmt.Errorf("collect: registry: %w", err)
	}
	type candidate struct {
		path string
		mod  int64
	}
	cands := make([]candidate, 0, len(names))
	for _, path := range names {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{path, fi.ModTime().UnixNano()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mod != cands[j].mod {
			return cands[i].mod < cands[j].mod
		}
		return cands[i].path < cands[j].path
	})
	for _, c := range cands {
		key := strings.TrimSuffix(filepath.Base(c.path), ".xml")
		fn, size, err := readEntryFile(c.path, key)
		if err != nil {
			// A corrupted entry must never be served: discard the file so
			// the next put repopulates it from a fresh probe run.
			os.Remove(c.path)
			r.stats.Corrupt++
			continue
		}
		r.insertLocked(key, fn, size)
	}
	return nil
}

// readEntryFile parses and validates one stored entry: a single-entry
// campaign-cache document whose checksum verifies and whose entry key
// matches the filename.
func readEntryFile(path, key string) (*xmlrep.CacheFuncXML, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	doc, err := xmlrep.Unmarshal[xmlrep.CampaignCacheDoc](data)
	if err != nil {
		return nil, 0, err
	}
	if err := xmlrep.Verify(doc); err != nil {
		return nil, 0, fmt.Errorf("collect: registry: %s: %w", path, err)
	}
	if len(doc.Funcs) != 1 || doc.Funcs[0].Key != key {
		return nil, 0, fmt.Errorf("collect: registry: %s: not a single-entry doc for its key", path)
	}
	return &doc.Funcs[0], int64(len(data)), nil
}

// insertLocked indexes one validated entry and applies the budgets.
// First write wins: entries are content-addressed, so a key collision
// is a duplicate derivation of the same result.
func (r *Registry) insertLocked(key string, fn *xmlrep.CacheFuncXML, size int64) bool {
	if _, ok := r.entries[key]; ok {
		return false
	}
	r.entries[key] = &regEntry{fn: *fn, sum: xmlrep.Checksum(fn), size: size}
	r.order = append(r.order, key)
	r.bytes += size
	r.evictLocked()
	return true
}

// evictLocked drops oldest entries until both budgets hold, compacting
// the order slice when its dead prefix dominates.
func (r *Registry) evictLocked() {
	over := func() bool {
		n := len(r.entries)
		return (r.maxDocs > 0 && n > r.maxDocs) || (r.maxBytes > 0 && r.bytes > r.maxBytes && n > 1)
	}
	for over() && r.head < len(r.order) {
		key := r.order[r.head]
		r.head++
		e, ok := r.entries[key]
		if !ok {
			continue
		}
		delete(r.entries, key)
		r.bytes -= e.size
		r.stats.Evicted++
		if r.dir != "" {
			os.Remove(filepath.Join(r.dir, key+".xml"))
		}
	}
	if r.head > len(r.order)/2 && r.head > 64 {
		r.order = append([]string(nil), r.order[r.head:]...)
		r.head = 0
	}
}

// Put stores one cache entry under its own Key, persisting it to the
// registry directory. It reports whether the entry was newly stored
// (false = already known). Entries without a key are refused.
func (r *Registry) Put(hierarchy string, fn *xmlrep.CacheFuncXML) (bool, error) {
	if fn == nil || fn.Key == "" {
		return false, fmt.Errorf("collect: registry: entry has no key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[fn.Key]; ok {
		r.stats.Known++
		return false, nil
	}
	data, err := marshalEntryDoc(hierarchy, fn)
	if err != nil {
		return false, err
	}
	if r.dir != "" {
		if err := xmlrep.WriteFileAtomic(filepath.Join(r.dir, fn.Key+".xml"), data, 0o600); err != nil {
			return false, fmt.Errorf("collect: registry: %w", err)
		}
	}
	r.insertLocked(fn.Key, fn, int64(len(data)))
	r.stats.Puts++
	return true, nil
}

// marshalEntryDoc renders one entry as its on-disk form: a checksummed
// single-entry campaign-cache document.
func marshalEntryDoc(hierarchy string, fn *xmlrep.CacheFuncXML) ([]byte, error) {
	doc := &xmlrep.CampaignCacheDoc{Hierarchy: hierarchy, Funcs: []xmlrep.CacheFuncXML{*fn}}
	xmlrep.Seal(doc)
	return xmlrep.Marshal(doc)
}

// Get answers one lookup: the entries held for the requested keys (each
// stamped with its integrity sum), plus which keys were found and which
// were not.
func (r *Registry) Get(keys []string) *xmlrep.RegistryAnswer {
	ans := &xmlrep.RegistryAnswer{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range keys {
		e, ok := r.entries[key]
		if !ok {
			r.stats.Misses++
			ans.Missing = append(ans.Missing, key)
			continue
		}
		r.stats.Hits++
		ans.Found = append(ans.Found, key)
		ans.Funcs = append(ans.Funcs, xmlrep.RegistryEntryXML{CacheFuncXML: e.fn, Sum: e.sum})
	}
	xmlrep.Seal(ans)
	return ans
}

// Stats snapshots the registry's counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Entries = len(r.entries)
	s.Bytes = r.bytes
	return s
}

// Handler returns the table of the registry exchanges; register it with
// collect.WithHandler. It answers KindRegistryGet (reply with a
// RegistryAnswer) and KindRegistryPut (store entries, reply with a
// RegistryAck). Both exchanges have response frames — clients must use
// Client.Call.
func (r *Registry) Handler() Handler {
	return Handler{xmlrep.KindRegistryGet: r.handleGet, xmlrep.KindRegistryPut: r.handlePut}
}

// handleGet answers one get frame; a malformed or corrupted request
// gets a refusing ack rather than a fabricated answer. The request
// checksum is optional.
func (r *Registry) handleGet(data []byte) []byte {
	req, err := xmlrep.Unmarshal[xmlrep.RegistryGet](data)
	if err != nil {
		return xmlrep.MustMarshal(&xmlrep.RegistryAck{OK: false, Reason: "malformed registry get"})
	}
	if req.Checksum != "" && xmlrep.Verify(req) != nil {
		return xmlrep.MustMarshal(&xmlrep.RegistryAck{OK: false, Reason: "registry get checksum mismatch"})
	}
	return xmlrep.MustMarshal(r.Get(req.Keys))
}

// handlePut stores a pushed batch. The frame checksum is mandatory:
// storing a truncated or corrupted batch would poison every future warm
// sweep, so an unverifiable frame is refused whole.
func (r *Registry) handlePut(data []byte) []byte {
	refuse := func(reason string) []byte {
		r.mu.Lock()
		r.stats.Rejected++
		r.mu.Unlock()
		return xmlrep.MustMarshal(&xmlrep.RegistryAck{OK: false, Reason: reason})
	}
	put, err := xmlrep.Unmarshal[xmlrep.RegistryPut](data)
	if err != nil {
		return refuse("malformed registry put")
	}
	if xmlrep.Verify(put) != nil {
		return refuse("registry put checksum mismatch")
	}
	ack := xmlrep.RegistryAck{OK: true}
	for i := range put.Funcs {
		stored, err := r.Put(put.Hierarchy, &put.Funcs[i])
		if err != nil {
			continue // a keyless entry is skipped, not fatal to the batch
		}
		if stored {
			ack.Stored++
		} else {
			ack.Known++
		}
	}
	return xmlrep.MustMarshal(&ack)
}

// RegistryFetch asks a registry for the entries stored under keys,
// identifying as client. The answer's frame checksum is verified before
// it is returned; per-entry sums are the caller's concern (the caller
// decides what a corrupted entry costs — see inject's RegistryCache,
// which discards it and re-probes).
func RegistryFetch(c *Client, client string, keys []string) (*xmlrep.RegistryAnswer, error) {
	req := &xmlrep.RegistryGet{Client: client, Keys: keys}
	xmlrep.Seal(req)
	resp, err := c.Call(req)
	if err != nil {
		return nil, err
	}
	kind, err := xmlrep.Kind(resp)
	if err != nil {
		return nil, fmt.Errorf("collect: registry fetch: %w", err)
	}
	switch kind {
	case xmlrep.KindRegistryAnswer:
		ans, err := xmlrep.Unmarshal[xmlrep.RegistryAnswer](resp)
		if err != nil {
			return nil, err
		}
		if err := xmlrep.Verify(ans); err != nil {
			return nil, fmt.Errorf("collect: registry fetch: answer: %w", err)
		}
		return ans, nil
	case xmlrep.KindRegistryAck:
		ack, err := xmlrep.Unmarshal[xmlrep.RegistryAck](resp)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("collect: registry fetch refused: %s", ack.Reason)
	default:
		return nil, fmt.Errorf("collect: registry fetch: unexpected %s answer", kind)
	}
}

// RegistryPush uploads a batch of cache entries to a registry and
// returns its ack. A transport-level success with ack.OK false means
// the registry refused the batch (the ack's Reason says why).
func RegistryPush(c *Client, client, hierarchy string, funcs []xmlrep.CacheFuncXML) (*xmlrep.RegistryAck, error) {
	put := &xmlrep.RegistryPut{Client: client, Hierarchy: hierarchy, Funcs: funcs}
	xmlrep.Seal(put)
	resp, err := c.Call(put)
	if err != nil {
		return nil, err
	}
	ack, err := xmlrep.Unmarshal[xmlrep.RegistryAck](resp)
	if err != nil {
		return nil, fmt.Errorf("collect: registry push: unexpected answer: %w", err)
	}
	return ack, nil
}
