package main

import (
	"fmt"
	"time"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/cval"
	"healers/internal/simelf"
)

// Sonames of the outer and inner shims.
const (
	outerSoname = "libperfbench_outer.so"
	innerSoname = "libperfbench_inner.so"
)

// shim is the benchmark's pass-through interposer: a library exporting
// every symbol of a target library, preloaded like any HEALERS wrapper.
// Its OnLoad hook resolves the next definition of each symbol (the
// RTLD_NEXT lookup the generated wrappers use), and each exported
// function times the call it forwards. Preloaded first it times the
// whole wrapped call; preloaded after the wrappers (just above libc) it
// times the library body alone, and with access set it also reads the
// simulated memory counters around the call. A shim changes nothing the
// program can observe: it touches no simulated memory and sets no errno.
//
// A shim is used by one simulated process at a time.
type shim struct {
	lib    *simelf.Library
	next   []cval.CFunc
	access bool
	counts shimCounts
}

// shimCounts are a shim's counters since its last take.
type shimCounts struct {
	// Loads counts link-map loads: one per started process that
	// preloads the shim.
	Loads int
	// Calls and NS count forwarded calls and the time spent in them.
	Calls uint64
	NS    int64
	// MemLoads, MemStores, and Pages are the simulated memory loads,
	// stores, and newly mapped pages inside forwarded calls (access
	// shims only).
	MemLoads  uint64
	MemStores uint64
	Pages     int64
}

// newShim builds a shim named soname over every export of target.
func newShim(soname string, target *simelf.Library, access bool) *shim {
	s := &shim{lib: simelf.NewLibrary(soname), access: access}
	names := target.Symbols()
	s.next = make([]cval.CFunc, len(names))
	for i, name := range names {
		fn := s.forward(i)
		if p := target.Proto(name); p != nil {
			s.lib.ExportWithProto(p, fn)
		} else {
			s.lib.Export(name, fn)
		}
	}
	s.lib.OnLoad = func(next simelf.NextFunc) error {
		for i, name := range names {
			fn, ok := next(name)
			if !ok {
				return fmt.Errorf("perfbench: %s: no next definition of %s", soname, name)
			}
			s.next[i] = fn
		}
		s.counts.Loads++
		return nil
	}
	return s
}

func (s *shim) forward(i int) cval.CFunc {
	return func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		fn := s.next[i]
		if !s.access {
			t0 := time.Now()
			v, f := fn(env, args)
			s.counts.NS += int64(time.Since(t0))
			s.counts.Calls++
			return v, f
		}
		sp := env.Img.Space
		l0, s0 := sp.AccessCounts()
		p0 := sp.PageCount()
		t0 := time.Now()
		v, f := fn(env, args)
		s.counts.NS += int64(time.Since(t0))
		s.counts.Calls++
		l1, s1 := sp.AccessCounts()
		s.counts.MemLoads += l1 - l0
		s.counts.MemStores += s1 - s0
		s.counts.Pages += int64(sp.PageCount() - p0)
		return v, f
	}
}

// take returns the counters and zeroes them.
func (s *shim) take() shimCounts {
	c := s.counts
	s.counts = shimCounts{}
	return c
}

// installShims adds the outer (whole wrapped call) and inner (libc body
// plus memory counters) shims to sys.
func installShims(sys *simelf.System) (outer, inner *shim, err error) {
	libc, _ := sys.Library(clib.LibcSoname)
	outer = newShim(outerSoname, libc, false)
	inner = newShim(innerSoname, libc, true)
	if err := sys.AddLibrary(outer.lib); err != nil {
		return nil, nil, err
	}
	if err := sys.AddLibrary(inner.lib); err != nil {
		return nil, nil, err
	}
	return outer, inner, nil
}

// recordShimTimes records one traced operation's shim timings: gen self
// time is the outer shim's time minus the inner one's, clib time the
// inner shim's.
func recordShimTimes(lp *layerProbes, outer, inner shimCounts) {
	if outer.Calls > 0 {
		lp.add("gen.ns_per_call", float64(outer.NS-inner.NS)/float64(outer.Calls))
	}
	if inner.Calls > 0 {
		lp.add("clib.ns_per_call", float64(inner.NS)/float64(inner.Calls))
	}
}

// shimCountMetrics returns one traced operation's shim counts.
func shimCountMetrics(outer, inner shimCounts) map[string]float64 {
	return map[string]float64{
		"gen.calls_per_op":   float64(outer.Calls),
		"proc.starts_per_op": float64(inner.Loads),
		"cmem.loads_per_op":  float64(inner.MemLoads),
		"cmem.stores_per_op": float64(inner.MemStores),
		"cmem.pages_per_op":  float64(inner.Pages),
	}
}
