package gen

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Latency histograms use fixed log2 buckets: bucket b counts calls whose
// duration d satisfies 2^b ns <= d < 2^(b+1) ns (durations under 1 ns
// land in bucket 0). The layout is shared verbatim by the capture path
// (the exectime micro-generator), the XML profile document, the
// collection server's streaming merge, and the /metrics endpoint — a
// fleet-wide merge is element-wise addition and a percentile query is one
// O(HistBuckets) walk, never a re-parse of raw samples.

// HistBuckets is the number of log2 latency buckets. 40 buckets cover
// 1 ns up to ~18 minutes per call; anything slower saturates into the
// last bucket.
const HistBuckets = 40

// HistBucket returns the histogram bucket index for one duration.
func HistBucket(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// HistUpperNS returns bucket i's inclusive nanosecond upper bound,
// 2^(i+1)-1; the last bucket is unbounded.
func HistUpperNS(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<(i+1) - 1
}

// HistTotal sums a histogram's bucket counts — the number of recorded
// samples.
func HistTotal(buckets []uint64) uint64 {
	var n uint64
	for _, c := range buckets {
		n += c
	}
	return n
}

// HistQuantileNS returns the q-quantile latency estimate of a log2
// histogram in nanoseconds: the upper bound of the bucket containing the
// ceil(q*total)-th sample (so q=0.5 is p50, q=1 the maximum bucket's
// bound). It returns 0 for an empty histogram.
func HistQuantileNS(buckets []uint64, q float64) int64 {
	total := HistTotal(buckets)
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range buckets {
		seen += c
		if seen >= rank {
			return HistUpperNS(i)
		}
	}
	return HistUpperNS(len(buckets) - 1)
}

// FormatNS renders a nanosecond bound compactly for reports
// ("≤" labels of histogram percentiles).
func FormatNS(ns int64) string {
	switch {
	case ns >= math.MaxInt64:
		return "inf"
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.3gs", float64(ns)/1e9)
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.3gms", float64(ns)/1e6)
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.3gµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// TraceEntry is one record of the trace micro-generator's bounded ring:
// a recently intercepted call with its rendered arguments, duration, and
// outcome, kept for post-mortem inspection (healers-profile -trace). The
// ring keeps a call's argument words and errno; State.Trace renders them
// into Args and Outcome when the ring is read. The attribute tags are
// the profile document's <call> element, which carries these entries as
// they are.
type TraceEntry struct {
	// Seq is the 1-based global sequence number of the call across the
	// wrapper library; gaps at the front mean the ring wrapped.
	Seq uint64 `xml:"seq,attr"`
	// Func is the wrapped function's name.
	Func string `xml:"func,attr"`
	// Args renders the caller's argument words.
	Args string `xml:"args,attr,omitempty"`
	// DurNS is the wall time between the trace micro-generator's prefix
	// and postfix hooks, nanoseconds — the call's duration including any
	// inner micro-generators.
	DurNS int64 `xml:"dur_ns,attr"`
	// Outcome is "ok", "denied", or "errno=<name>" when the call
	// changed errno.
	Outcome string `xml:"outcome,attr"`
}
