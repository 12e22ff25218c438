package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// selfTestSeconds is the measurement time of each self-test run.
const selfTestSeconds = 3 * time.Second

// repeatable reports whether a per-layer metric is a count that must
// repeat exactly between two traced runs at one seed. Timings, document
// sizes (profiles carry timings), and counts that grow with run length
// (evictions, policy polls) are not.
func repeatable(name string) bool {
	for _, prefix := range []string{
		"cmem.", "gen.calls_per_op", "proc.starts_per_op", "inject.outcome.",
		"inject.cache_hits", "inject.probes_per_op", "wrappers.", "victim.",
		"collect.accept_ratio", "collect.docs_rejected", "collect.frames_rejected",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// selfTest runs every workload traced twice at seed and once at seed+1.
// Each run must be correct, which includes the shim checks each traced
// run makes (a traced cold sweep's report byte-identical to the
// untraced one, a traced chaos-soak window's counters equal to the
// untraced window's); the repeatable counts of the two runs at seed
// must be equal.
func selfTest(sp *spec, seed uint64, w io.Writer) error {
	for _, wl := range workloads {
		var runs []*output
		for _, s := range []uint64{seed, seed, seed + 1} {
			out, err := measure(wl, sp, s, selfTestSeconds, true)
			if err != nil {
				return err
			}
			if !out.Correct {
				return fmt.Errorf("%s: seed %d: %d of %d operations failed", wl.name, s, out.Failed, out.Attempted)
			}
			runs = append(runs, out)
		}
		n := 0
		for name, m := range runs[0].Metrics {
			if !repeatable(name) {
				continue
			}
			n++
			if again := runs[1].Metrics[name].Value; again != m.Value {
				return fmt.Errorf("%s: count %s is %v, then %v at the same seed", wl.name, name, m.Value, again)
			}
		}
		fmt.Fprintf(w, "%s: %d counts repeat exactly at seed %d; seed %d runs clean\n", wl.name, n, seed, seed+1)
	}
	return nil
}
