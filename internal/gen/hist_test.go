package gen

import (
	"math"
	"strings"
	"testing"
	"time"

	"healers/internal/cval"
)

func TestHistBucketBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 1},
		{4, 2},
		{255, 7},
		{256, 8},
		{time.Second, 29},
		{time.Hour, HistBuckets - 1}, // saturates
	}
	for _, c := range cases {
		if got := HistBucket(c.d); got != c.want {
			t.Errorf("HistBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every sample must fall inside its bucket's bounds: lower bound is
	// the previous bucket's upper bound + 1.
	for _, d := range []time.Duration{1, 7, 100, 12345, time.Millisecond, time.Second} {
		b := HistBucket(d)
		if d.Nanoseconds() > HistUpperNS(b) {
			t.Errorf("%v lands in bucket %d but exceeds its bound %d", d, b, HistUpperNS(b))
		}
		if b > 0 && d.Nanoseconds() <= HistUpperNS(b-1) {
			t.Errorf("%v lands in bucket %d but fits bucket %d", d, b, b-1)
		}
	}
}

func TestHistUpperNS(t *testing.T) {
	if got := HistUpperNS(0); got != 1 {
		t.Errorf("bucket 0 bound = %d, want 1", got)
	}
	if got := HistUpperNS(7); got != 255 {
		t.Errorf("bucket 7 bound = %d, want 255", got)
	}
	if got := HistUpperNS(HistBuckets - 1); got != math.MaxInt64 {
		t.Errorf("last bucket bound = %d, want MaxInt64", got)
	}
	if got := HistUpperNS(-1); got != 0 {
		t.Errorf("negative bucket bound = %d, want 0", got)
	}
}

func TestHistQuantile(t *testing.T) {
	h := make([]uint64, HistBuckets)
	if got := HistQuantileNS(h, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %d, want 0", got)
	}
	// 90 samples in bucket 3 (≤15ns), 9 in bucket 6 (≤127ns), 1 in
	// bucket 10 (≤2047ns): p50/p90 land in bucket 3, p99 in bucket 6,
	// max in bucket 10.
	h[3], h[6], h[10] = 90, 9, 1
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 15}, {0.9, 15}, {0.99, 127}, {1, 2047}, {-1, 15}, {2, 2047}} {
		if got := HistQuantileNS(h, c.q); got != c.want {
			t.Errorf("q=%v -> %d, want %d", c.q, got, c.want)
		}
	}
	if got := HistTotal(h); got != 100 {
		t.Errorf("total = %d, want 100", got)
	}
}

func TestFormatNS(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{
		{500, "500ns"},
		{1500, "1.5µs"},
		{2_000_000, "2ms"},
		{3_000_000_000, "3s"},
		{math.MaxInt64, "inf"},
	} {
		if got := FormatNS(c.ns); got != c.want {
			t.Errorf("FormatNS(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestExecSampleFeedsHistogram(t *testing.T) {
	st := NewState("libtest.so")
	idx := st.Index("strlen")
	st.addExecSample(idx, 40*time.Nanosecond)  // bucket 5
	st.addExecSample(idx, 40*time.Nanosecond)  // bucket 5
	st.addExecSample(idx, 300*time.Nanosecond) // bucket 8
	if st.ExecHist[idx][5] != 2 || st.ExecHist[idx][8] != 1 {
		t.Errorf("histogram = %v", st.ExecHist[idx])
	}
	if got := HistTotal(st.ExecHist[idx]); got != 3 {
		t.Errorf("bucket sum = %d, want 3", got)
	}
	if st.Funcs[idx].ExecNS != 380 {
		t.Errorf("total = %dns, want 380ns", st.Funcs[idx].ExecNS)
	}
	st.Reset()
	if got := HistTotal(st.ExecHist[idx]); got != 0 {
		t.Errorf("bucket sum after Reset = %d, want 0", got)
	}
}

// addTrace records one call of fn that took dur, as the trace
// micro-generator does.
func addTrace(st *State, fn string, dur time.Duration) {
	st.traceCall(&TraceEntry{Func: fn}, nil, dur, outcomeOK, 0)
}

func TestTraceRing(t *testing.T) {
	st := NewState("libtest.so")
	// Without a capacity the ring stays disarmed.
	addTrace(st, "ignored", 0)
	if got := st.Trace(); got != nil {
		t.Fatalf("disarmed ring recorded %v", got)
	}

	st.SetTraceCap(3)
	st.SetTraceCap(2) // smaller request must not shrink the ring
	for i := 0; i < 5; i++ {
		addTrace(st, "f", time.Duration(i))
	}
	got := st.Trace()
	if len(got) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(got))
	}
	// Oldest-first: calls 3, 4, 5 survive with sequence numbers 3..5.
	for i, e := range got {
		if e.Seq != uint64(i+3) {
			t.Errorf("entry %d has seq %d, want %d", i, e.Seq, i+3)
		}
	}
	st.Reset()
	if got := st.Trace(); got != nil {
		t.Errorf("ring after Reset = %v, want empty", got)
	}
}

// TestTraceRingResetRefill pins the Reset-then-refill contract: the ring
// stays armed, refills with correct oldest-first ordering through
// wraparound, and Seq continues the pre-Reset global sequence instead of
// restarting at 1 — so trace entries from before and after a Reset stay
// comparable.
func TestTraceRingResetRefill(t *testing.T) {
	st := NewState("libtest.so")
	st.SetTraceCap(3)
	for i := 0; i < 5; i++ { // seq 1..5; ring holds 3,4,5
		addTrace(st, "a", 0)
	}
	st.Reset()

	// Refill past capacity: seq 6..9, ring holds 7,8,9 oldest-first.
	for i := 0; i < 4; i++ {
		addTrace(st, "b", time.Duration(i))
	}
	got := st.Trace()
	if len(got) != 3 {
		t.Fatalf("refilled ring holds %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+7) {
			t.Errorf("entry %d has seq %d, want %d (monotonic across Reset)", i, e.Seq, i+7)
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Errorf("snapshot not in increasing Seq order: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}

	// A partially refilled ring (fewer entries than capacity after
	// Reset) must not resurrect pre-Reset slots.
	st.Reset()
	addTrace(st, "c", 0)
	got = st.Trace()
	if len(got) != 1 || got[0].Func != "c" || got[0].Seq != 10 {
		t.Errorf("partial refill = %+v, want one entry func=c seq=10", got)
	}
}

// TestTraceRingGrow pins SetTraceCap growth on a live ring: the
// surviving entries re-linearize oldest-first into the larger store and
// subsequent adds extend them in order.
func TestTraceRingGrow(t *testing.T) {
	st := NewState("libtest.so")
	st.SetTraceCap(2)
	for i := 0; i < 3; i++ { // seq 1..3; ring holds 2,3
		addTrace(st, "a", 0)
	}
	st.SetTraceCap(4)
	addTrace(st, "b", 0) // seq 4
	got := st.Trace()
	want := []uint64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("grown ring holds %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Seq != want[i] {
			t.Errorf("entry %d has seq %d, want %d", i, e.Seq, want[i])
		}
	}
}

func TestSummarizeArgs(t *testing.T) {
	summarizeArgs := func(args []cval.Value) string { return string(appendArgs(nil, args)) }
	if got := summarizeArgs(nil); got != "" {
		t.Errorf("no args rendered %q", got)
	}
	if got := summarizeArgs([]cval.Value{1, 255}); got != "0x1, 0xff" {
		t.Errorf("two args rendered %q", got)
	}
	long := make([]cval.Value, traceMaxArgs+2)
	if got := summarizeArgs(long); !strings.HasSuffix(got, ", ...") {
		t.Errorf("overlong arg list rendered %q, want ... suffix", got)
	}
}
