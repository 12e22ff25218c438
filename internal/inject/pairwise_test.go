package inject

import (
	"testing"

	"healers/internal/cheader"
	"healers/internal/cmem"
	"healers/internal/cval"
	"healers/internal/simelf"
)

func TestPairwiseFindsAtLeastSingleFaultFailures(t *testing.T) {
	c := newLibcCampaign(t)
	for _, fn := range []string{"strcpy", "memcpy"} {
		cmp, err := c.CompareModes(fn)
		if err != nil {
			t.Fatalf("CompareModes(%s): %v", fn, err)
		}
		if !cmp.SingleDetects || !cmp.PairwiseDetects {
			t.Errorf("%s: detection single=%v pairwise=%v", fn, cmp.SingleDetects, cmp.PairwiseDetects)
		}
		if cmp.PairProbes <= cmp.SingleProbes {
			t.Errorf("%s: pairwise probes (%d) should exceed single-fault probes (%d)",
				fn, cmp.PairProbes, cmp.SingleProbes)
		}
		// Pairwise subsumes single-fault pairs where one side is
		// golden, so it finds at least as many failing calls.
		if cmp.PairFailures < cmp.SingleFailures {
			t.Errorf("%s: pairwise failures %d < single failures %d",
				fn, cmp.PairFailures, cmp.SingleFailures)
		}
	}
}

func TestPairwiseResultShape(t *testing.T) {
	c := newLibcCampaign(t)
	pr, err := c.RunFunctionPairwise("strncpy")
	if err != nil {
		t.Fatalf("RunFunctionPairwise: %v", err)
	}
	// strncpy has 3 params: pairs (0,1), (0,2), (1,2).
	seenPairs := map[[2]int]bool{}
	for _, r := range pr.Results {
		if r.ParamA >= r.ParamB {
			t.Fatalf("unordered pair (%d,%d)", r.ParamA, r.ParamB)
		}
		seenPairs[[2]int{r.ParamA, r.ParamB}] = true
	}
	if len(seenPairs) != 3 {
		t.Errorf("covered pairs = %v, want 3", seenPairs)
	}
	if pr.Probes != len(pr.Results) || pr.Probes == 0 {
		t.Errorf("probes = %d, results = %d", pr.Probes, len(pr.Results))
	}
	if _, err := c.RunFunctionPairwise("no_such"); err == nil {
		t.Error("pairwise on unknown function succeeded")
	}
}

// TestPairwiseCatchesInteractionSingleMisses demonstrates why pairwise
// exists: memcpy with (dest=short_buf, n=large) crashes in combinations a
// strict one-parameter sweep with golden partners cannot produce — e.g.
// a barely-too-small buffer with a barely-too-big count.
func TestPairwiseInteractionCoverage(t *testing.T) {
	c := newLibcCampaign(t)
	pr, err := c.RunFunctionPairwise("memcpy")
	if err != nil {
		t.Fatal(err)
	}
	var sawInteraction bool
	for _, r := range pr.Results {
		// A failing probe where NEITHER side is a golden value is a
		// genuine two-parameter interaction.
		if r.Outcome.Failure() && r.ProbeA != "big_buf" && r.ProbeB != "modest" &&
			r.ProbeA != "modest" && r.ProbeB != "big_buf" {
			sawInteraction = true
			break
		}
	}
	if !sawInteraction {
		t.Error("pairwise sweep found no two-parameter interaction failures")
	}
}

// TestPairwiseSilentCorruption: pairwise probes share the single-fault
// classifier, so a call that writes through a golden read-only argument
// while two other parameters are injected is classified corrupt.
func TestPairwiseSilentCorruption(t *testing.T) {
	sys := simelf.NewSystem()
	lib := simelf.NewLibrary("libsmear.so")
	proto, err := cheader.ParsePrototype("int smear(int a, const char *src, int b); // @src in_str")
	if err != nil {
		t.Fatal(err)
	}
	// The bug: smear increments the first byte of its const source,
	// whatever a and b are.
	lib.ExportWithProto(proto, func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		src := args[1].Addr()
		b, f := env.Img.Space.ReadByteAt(src)
		if f != nil {
			return 0, f
		}
		if f := env.Img.Space.WriteByteAt(src, b+1); f != nil {
			return 0, f
		}
		return cval.Int(0), nil
	})
	if err := sys.AddLibrary(lib); err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, "libsmear.so")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.RunFunctionPairwise("smear")
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, r := range pr.Results {
		if r.ParamA != 0 || r.ParamB != 2 {
			continue
		}
		pairs++
		if r.Outcome != OutcomeCorrupt {
			t.Errorf("pair (a=%s, b=%s) classified %v, want %v", r.ProbeA, r.ProbeB, r.Outcome, OutcomeCorrupt)
		}
	}
	if pairs == 0 {
		t.Fatalf("no (a, b) pair probed; results: %+v", pr.Results)
	}
}
