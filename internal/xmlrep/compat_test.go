package xmlrep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
)

// TestPreObservabilityGolden proves old profile documents stay
// parse-compatible: the golden file was emitted by the serializer BEFORE
// the observability fields (latency histograms, outcome counters, trace)
// existed, and must still parse to the same totals with the new fields at
// their zero values.
func TestPreObservabilityGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "profile_pre_observability.xml"))
	if err != nil {
		t.Fatal(err)
	}
	kind, err := Kind(data)
	if err != nil || kind != KindProfile {
		t.Fatalf("Kind = %v, %v; want profile", kind, err)
	}
	log, err := Unmarshal[ProfileLog](data)
	if err != nil {
		t.Fatalf("old document no longer parses: %v", err)
	}
	if log.TotalCalls() != 54 {
		t.Errorf("TotalCalls = %d, want 54", log.TotalCalls())
	}
	wantFuncs := map[string]uint64{"strlen": 42, "open": 7, "strcpy": 5}
	for _, f := range log.Funcs {
		if f.Calls != wantFuncs[f.Name] {
			t.Errorf("%s calls = %d, want %d", f.Name, f.Calls, wantFuncs[f.Name])
		}
		// The observability fields must come back as zero values, and
		// LatencyDense must report "no data" (nil), not an empty
		// histogram — the aggregator distinguishes the two.
		if f.Passed != 0 || f.Substituted != 0 || f.Latency != nil {
			t.Errorf("%s: pre-observability doc has non-zero new fields: %+v", f.Name, f)
		}
		if f.LatencyDense() != nil {
			t.Errorf("%s: LatencyDense of old doc = %v, want nil", f.Name, f.LatencyDense())
		}
	}
	if len(log.TraceEntries()) != 0 {
		t.Errorf("old doc has %d trace entries", len(log.TraceEntries()))
	}
	open := log.Funcs[1]
	if open.Name != "open" || len(open.Errnos) != 1 || open.Errnos[0].Errno != "ENOENT" || open.Errnos[0].Count != 3 {
		t.Errorf("open errnos = %+v", open.Errnos)
	}
	if log.Funcs[2].Denied != 2 {
		t.Errorf("strcpy denied = %d, want 2", log.Funcs[2].Denied)
	}
}

// TestProfileLogObservabilityRoundTrip drives a populated State through
// NewProfileLog -> Marshal -> Unmarshal and checks every new field
// survives, including the sparse-to-dense latency conversion.
func TestProfileLogObservabilityRoundTrip(t *testing.T) {
	st := gen.NewState("libhealers_prof.so")
	idx := st.Index("strlen")
	st.Funcs[idx].Calls = 10
	st.Funcs[idx].ExecNS = 1234
	st.Funcs[idx].Passed = 9
	st.Funcs[idx].Substituted = 1
	st.ExecHist[idx][0] = 3
	st.ExecHist[idx][7] = 6
	st.ExecHist[idx][39] = 1
	st.FuncErrno[idx][2] = 4 // ENOENT
	st.GlobalErrno[2] = 4

	orig := NewProfileLog("host-a", "textutil", st)
	orig.Trace = &TraceXML{Calls: []TraceEntryXML{
		{Seq: 1, Func: "strlen", Args: "0x1000", DurNS: 42, Outcome: "ok"},
		{Seq: 2, Func: "open", Args: "0x2000, 0x0", DurNS: 99, Outcome: "errno=ENOENT"},
	}}
	data, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal[ProfileLog](data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Funcs) != 1 {
		t.Fatalf("round-trip lost functions: %+v", back.Funcs)
	}
	f := back.Funcs[0]
	if f.Passed != 9 || f.Substituted != 1 || f.Calls != 10 {
		t.Errorf("outcome counters lost: %+v", f)
	}
	wantHist := make([]uint64, gen.HistBuckets)
	wantHist[0], wantHist[7], wantHist[39] = 3, 6, 1
	if !reflect.DeepEqual(f.LatencyDense(), wantHist) {
		t.Errorf("latency = %v, want %v", f.LatencyDense(), wantHist)
	}
	if gen.HistTotal(f.LatencyDense()) != f.Calls {
		t.Errorf("bucket sum %d != calls %d", gen.HistTotal(f.LatencyDense()), f.Calls)
	}
	trace := back.TraceEntries()
	if len(trace) != 2 {
		t.Fatalf("trace = %+v, want 2 entries", trace)
	}
	if trace[0].Seq != 1 || trace[0].Func != "strlen" || trace[0].DurNS != 42 || trace[0].Outcome != "ok" {
		t.Errorf("trace[0] = %+v", trace[0])
	}
	if trace[1].Func != "open" || trace[1].Args != "0x2000, 0x0" || trace[1].Outcome != "errno=ENOENT" {
		t.Errorf("trace[1] = %+v", trace[1])
	}
}

// TestContainmentCountersRoundTrip: a function's whole counter record
// and the trace ring survive NewProfileLog -> Marshal -> Unmarshal as
// they are. Every field of the record is set to its own nonzero value,
// so a counter the document does not carry fails the one struct
// comparison here.
func TestContainmentCountersRoundTrip(t *testing.T) {
	st := gen.NewState("libhealers_contain.so")
	next := cval.CFunc(func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		if len(args) > 1 {
			env.Errno = 2 // ENOENT
		}
		return 0, nil
	})
	call := gen.MustGenerator(gen.MGTrace(4), gen.MGCaller()).Build(&ctypes.Prototype{Name: "strcpy", Ret: ctypes.Int}, &next, st)
	env := cval.NewEnv()
	for _, args := range [][]cval.Value{nil, {0x1000}, {0x2000, 0x10}} {
		call(env, args)
	}
	idx := st.Index("strcpy")
	rec := reflect.ValueOf(&st.Funcs[idx]).Elem()
	for i := range rec.NumField() {
		if f := rec.Field(i); f.CanUint() {
			f.SetUint(uint64(i + 1))
		} else {
			f.SetInt(int64(i + 1))
		}
	}

	data, err := Marshal(NewProfileLog("host-a", "victim", st))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal[ProfileLog](data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Funcs) != 1 {
		t.Fatalf("round-trip lost functions: %+v", back.Funcs)
	}
	if back.Funcs[0].FuncCounters != st.Funcs[idx] {
		t.Errorf("counters = %+v, want %+v", back.Funcs[0].FuncCounters, st.Funcs[idx])
	}
	if got, want := back.TraceEntries(), st.Trace(); len(want) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %+v, want %+v (3 entries)", got, want)
	}
}

// TestEmptyObservabilityOmitted pins wire hygiene: a State with no
// latency samples, outcomes, or traces serializes without any of the new
// elements, so fresh-but-idle wrappers produce documents an old reader
// parses byte-for-byte like before.
func TestEmptyObservabilityOmitted(t *testing.T) {
	st := gen.NewState("libhealers_prof.so")
	st.Index("strlen")
	data, err := Marshal(NewProfileLog("h", "a", st))
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"<latency>", "<trace>", "passed=", "substituted=",
		"contained=", "retried=", "breaker_trips="} {
		if bytes.Contains(data, []byte(forbidden)) {
			t.Errorf("idle profile contains %q:\n%s", forbidden, data)
		}
	}
}
