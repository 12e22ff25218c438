// Campaign cache: a persistent, content-addressed store of per-function
// fault-injection outcomes. The derivation of a function's robust type is
// deterministic given its prototype, the probe hierarchy, and the injector
// configuration, so a campaign can skip every function whose cache entry
// still matches the content hash of those inputs — a re-run over an
// unchanged library probes zero functions, and a one-prototype change
// probes exactly one.
//
// The same file format doubles as the checkpoint for interrupted runs:
// with auto-flush enabled the cache is rewritten after every completed
// function, so a killed campaign resumes from the last flush instead of
// redoing finished work. Stale entries are detected by key mismatch (the
// prototype or hierarchy changed) and corrupted files by checksum; both
// are discarded silently rather than trusted — the worst case is always
// "probe again", never "report stale results".
package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/xmlrep"
)

// cacheEpoch versions the campaign engine itself. Bump it when the
// engine's observable behaviour changes in a way the prototype and probe
// hierarchy cannot capture (e.g. the outcome classification rules) or
// when the cache file format changes (epoch 2: the generic Seal
// checksum), to invalidate every existing cache wholesale.
const cacheEpoch = 2

var (
	hierarchyOnce sync.Once
	hierarchyHash string
)

// HierarchyVersion is the content hash of the probe hierarchy: every
// robustness chain's level names and every chain's probe catalog, plus the
// engine epoch and the probe fuel budget. Any edit to a chain or a probe
// catalog changes the version and invalidates every cache entry — the
// "probe-hierarchy version" component of the cache key.
func HierarchyVersion() string {
	hierarchyOnce.Do(func() {
		h := sha256.New()
		fmt.Fprintf(h, "epoch=%d fuel=%d\n", cacheEpoch, probeFuel)
		roles := []ctypes.Role{
			ctypes.RoleNone, ctypes.RoleInStr, ctypes.RoleInBuf, ctypes.RoleOutBuf,
			ctypes.RoleInOutBuf, ctypes.RoleSize, ctypes.RoleFd, ctypes.RoleFmt,
			ctypes.RoleFuncPtr, ctypes.RolePtrOut, ctypes.RoleHeapPtr,
		}
		for _, role := range roles {
			// RoleNone with an integer type selects the scalar chain;
			// every other role selects its chain regardless of type.
			p := ctypes.NewParam("p", ctypes.Int, role)
			chain := ctypes.ChainFor(p)
			fmt.Fprintf(h, "chain=%s levels=", chain.Name)
			for _, l := range chain.Levels {
				fmt.Fprintf(h, "%s,", l.Name)
			}
			fmt.Fprintf(h, " probes=")
			for _, pr := range ProbesFor(p) {
				fmt.Fprintf(h, "%s/%v,", pr.Name, pr.Golden)
			}
			fmt.Fprintln(h)
		}
		hierarchyHash = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return hierarchyHash
}

// protoSignature renders everything about a prototype that influences its
// probe sweep: name, return type, variadicity, and each parameter's name,
// type, role, and inter-parameter links. Header and man-page text are
// deliberately excluded — editing documentation must not invalidate the
// cache, editing anything probe-visible must.
func protoSignature(p *ctypes.Prototype) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ret=%s variadic=%v", p.Name, p.Ret.String(), p.Variadic)
	for _, prm := range p.Params {
		fmt.Fprintf(&b, " [%s %s role=%s sizeof=%d lenby=%d srcstr=%d nul=%v overlap=%v]",
			prm.Name, prm.Type.String(), prm.Role, prm.SizeOf, prm.LenBy, prm.SrcStr,
			prm.NulTerm, prm.OverlapOK)
	}
	return b.String()
}

// configHash condenses the injector configuration that changes probe
// outcomes without changing the prototype: the target library, the
// preload stack (a wrapper-preloaded verification sweep must not reuse
// unwrapped results), and the stdin seed.
func (c *Campaign) configHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "target=%s stdin=%q preloads=%q", c.target, c.stdin, strings.Join(c.preloads, ","))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// funcKey is the cache key of one function's campaign: the content hash
// of (prototype signature, probe-hierarchy version, injector config).
func funcKey(proto *ctypes.Prototype, config string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s", protoSignature(proto), HierarchyVersion(), config)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEntry is one stored function outcome. The report's Proto field is
// nil in storage; lookup re-attaches the live prototype.
type cacheEntry struct {
	name   string
	config string
	report *FuncReport
}

// Cache is a campaign cache bound to one file. The zero value is not
// usable; construct with OpenCache. All methods are safe for concurrent
// use by one campaign's workers.
type Cache struct {
	path string

	mu         sync.Mutex
	entries    map[string]*cacheEntry // by funcKey
	discard    string                 // why a load was discarded, if it was
	autoFlush  int                    // flush after every n puts; 0 = only on Save
	sincePut   int
	dirty      bool
	loadedKeys int
}

// OpenCache loads the campaign cache at path. A missing file yields an
// empty cache. A corrupted, truncated, or stale file (bad XML, checksum
// mismatch, different probe-hierarchy version, undecodable entry) is
// discarded — the cache starts empty, DiscardReason explains why, and the
// next save overwrites the bad file. Only genuine I/O errors (e.g. a
// permission failure on an existing file) are returned as errors.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{path: path, entries: make(map[string]*cacheEntry)}
	if path == "" {
		return c, nil // in-memory only
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("inject: reading campaign cache: %w", err)
	}
	doc, err := xmlrep.Unmarshal[xmlrep.CampaignCacheDoc](data)
	if err != nil {
		c.discard = fmt.Sprintf("unparseable cache file (%v)", err)
		return c, nil
	}
	if doc.Hierarchy != HierarchyVersion() {
		c.discard = fmt.Sprintf("stale probe hierarchy %s (current %s)", doc.Hierarchy, HierarchyVersion())
		return c, nil
	}
	if xmlrep.Verify(doc) != nil {
		c.discard = "checksum mismatch (corrupted or tampered file)"
		return c, nil
	}
	for _, fx := range doc.Funcs {
		fr, err := reportFromXML(&fx)
		if err != nil {
			c.discard = fmt.Sprintf("undecodable entry %s (%v)", fx.Name, err)
			c.entries = make(map[string]*cacheEntry)
			return c, nil
		}
		c.entries[fx.Key] = &cacheEntry{name: fx.Name, config: fx.Config, report: fr}
	}
	c.loadedKeys = len(c.entries)
	return c, nil
}

// Path returns the file the cache loads from and saves to.
func (c *Cache) Path() string { return c.path }

// DiscardReason reports why the file at Path was discarded during
// OpenCache, or "" if it loaded cleanly (or did not exist).
func (c *Cache) DiscardReason() string { return c.discard }

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SetAutoFlush makes the cache rewrite its file after every n new entries
// — checkpoint mode. n <= 0 disables mid-run flushing.
func (c *Cache) SetAutoFlush(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.autoFlush = n
}

// Drop removes every entry for the named function (all configurations),
// forcing its next sweep to probe. It is the manual invalidation hook for
// tests and tooling.
func (c *Cache) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.name == name {
			delete(c.entries, k)
			c.dirty = true
		}
	}
}

// MergeFrom copies every entry of other that this cache does not already
// hold — used to warm-start a checkpoint file from a persistent cache.
func (c *Cache) MergeFrom(other *Cache) {
	if other == nil || other == c {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range other.entries {
		if _, ok := c.entries[k]; !ok {
			c.entries[k] = e
			c.dirty = true
		}
	}
}

// lookup returns the cached report for key, or nil. The returned report
// is a fresh shallow copy; callers attach the live prototype.
//
// config is cross-checked against the entry's recorded injector config:
// the key already mixes the config hash in, so a mismatch can only mean
// a corrupted or hand-edited checkpoint — and a report derived under a
// different target/stdin/preload configuration must never satisfy a
// resume, so such entries are rejected rather than trusted.
func (c *Cache) lookup(key, config string) *FuncReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.config != config {
		return nil
	}
	cp := *e.report
	return &cp
}

// put stores a freshly derived report under key, replacing any stale
// entry of the same (function, config) whose key no longer matches. With
// auto-flush enabled the file is rewritten once enough puts accumulate;
// a flush failure is returned so the caller can surface it (a checkpoint
// that cannot be written is a failed checkpoint, not a warning), and
// leaves the in-memory cache as it was before the put, so a refused
// result is never persisted by a later Save.
func (c *Cache) put(name, config, key string, fr *FuncReport) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	replaced := make(map[string]*cacheEntry)
	for k, e := range c.entries {
		if k == key || e.name == name && e.config == config {
			replaced[k] = e
			delete(c.entries, k)
		}
	}
	stored := *fr
	stored.Proto = nil
	c.entries[key] = &cacheEntry{name: name, config: config, report: &stored}
	if c.autoFlush > 0 && c.sincePut+1 >= c.autoFlush {
		if err := c.saveLocked(); err != nil {
			delete(c.entries, key)
			for k, e := range replaced {
				c.entries[k] = e
			}
			return err
		}
		c.sincePut = 0
		return nil
	}
	c.dirty = true
	c.sincePut++
	return nil
}

// Save writes the cache to its file if anything changed since the last
// write. Saving an in-memory cache (empty path) is a no-op.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	return c.saveLocked()
}

// saveLocked renders and atomically replaces the cache file (temp file +
// rename), so a crash mid-write leaves either the old intact file or the
// new one — never a truncated hybrid. Callers hold c.mu.
func (c *Cache) saveLocked() error {
	path := c.path
	if path == "" {
		return nil
	}
	doc := c.docLocked()
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("inject: creating cache directory: %w", err)
	}
	if err := xmlrep.WriteFileAtomic(path, data, 0o600); err != nil {
		return fmt.Errorf("inject: writing campaign cache: %w", err)
	}
	c.dirty = false
	return nil
}

// docLocked renders the cache as its self-describing document, entries in
// deterministic (name, config) order. Callers hold c.mu.
func (c *Cache) docLocked() *xmlrep.CampaignCacheDoc {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := c.entries[keys[i]], c.entries[keys[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		return a.config < b.config
	})
	doc := &xmlrep.CampaignCacheDoc{Hierarchy: HierarchyVersion(), Generated: cacheTimestamp()}
	for _, k := range keys {
		e := c.entries[k]
		doc.Funcs = append(doc.Funcs, reportToXML(e.name, k, e.config, e.report))
	}
	xmlrep.Seal(doc)
	return doc
}

// reportToXML converts a function report to its cache-entry form.
func reportToXML(name, key, config string, fr *FuncReport) xmlrep.CacheFuncXML {
	fx := xmlrep.CacheFuncXML{
		Name:             name,
		Key:              key,
		Config:           config,
		Probes:           fr.Probes,
		Failures:         fr.Failures,
		NeedsContainment: fr.NeedsContainment,
	}
	for _, v := range fr.Verdicts {
		fx.Params = append(fx.Params, xmlrep.RobustParamXML{Name: v.Name, Chain: v.Chain, Level: v.LevelName})
	}
	for _, r := range fr.Results {
		px := xmlrep.CacheProbeXML{Param: r.Param, Probe: r.Probe, Sat: r.SatLevel, Outcome: r.Outcome.String()}
		if r.Fault != nil {
			px.FaultKind = int(r.Fault.Kind)
			px.FaultAddr = uint64(r.Fault.Addr)
			px.FaultOp = r.Fault.Op
			px.FaultDetail = r.Fault.Detail
		}
		fx.Results = append(fx.Results, px)
	}
	return fx
}

// outcomeFromString is the inverse of Outcome.String.
func outcomeFromString(s string) (Outcome, error) {
	for _, o := range []Outcome{OutcomeOK, OutcomeErrno, OutcomeCrash, OutcomeAbort, OutcomeDenied, OutcomeHang, OutcomeCorrupt, OutcomeSilentCorruption} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown outcome %q", s)
}

// reportFromXML reconstructs a function report from its cache entry. The
// result's Proto is nil; the campaign re-attaches the live prototype at
// lookup time (the key guarantees it matches the cached one).
func reportFromXML(fx *xmlrep.CacheFuncXML) (*FuncReport, error) {
	fr := &FuncReport{
		Name:             fx.Name,
		Probes:           fx.Probes,
		Failures:         fx.Failures,
		NeedsContainment: fx.NeedsContainment,
	}
	for _, p := range fx.Params {
		chain, ok := ctypes.ChainByName(p.Chain)
		if !ok {
			return nil, fmt.Errorf("unknown chain %q", p.Chain)
		}
		lvl := chain.LevelIndex(p.Level)
		if lvl < 0 {
			if p.Level != "uncontainable" {
				return nil, fmt.Errorf("unknown level %q of chain %q", p.Level, p.Chain)
			}
			lvl = len(chain.Levels)
		}
		fr.Verdicts = append(fr.Verdicts, ParamVerdict{Name: p.Name, Chain: p.Chain, Level: lvl, LevelName: p.Level})
	}
	for _, r := range fx.Results {
		out, err := outcomeFromString(r.Outcome)
		if err != nil {
			return nil, err
		}
		pr := ProbeResult{Param: r.Param, Probe: r.Probe, SatLevel: r.Sat, Outcome: out}
		if r.FaultKind != 0 {
			pr.Fault = &cmem.Fault{
				Kind:   cmem.FaultKind(r.FaultKind),
				Addr:   cmem.Addr(r.FaultAddr),
				Op:     r.FaultOp,
				Detail: r.FaultDetail,
			}
		}
		fr.Results = append(fr.Results, pr)
	}
	if fr.Probes != len(fr.Results) {
		return nil, fmt.Errorf("probe count %d != %d recorded results", fr.Probes, len(fr.Results))
	}
	return fr, nil
}

// cacheNow is the cache document's clock; a variable for reproducible
// tests.
var cacheNow = time.Now

func cacheTimestamp() string { return cacheNow().UTC().Format(time.RFC3339) }
