package cmem

import (
	"fmt"
	"testing"
)

func TestChaosDeterminism(t *testing.T) {
	a := NewChaos(0.25, 42)
	b := NewChaos(0.25, 42)
	for i := 0; i < 1000; i++ {
		fa, fb := a.Roll("op"), b.Roll("op")
		if (fa == nil) != (fb == nil) {
			t.Fatalf("roll %d diverged: %v vs %v", i, fa, fb)
		}
		if fa != nil && fa.Kind != fb.Kind {
			t.Fatalf("roll %d kind diverged: %v vs %v", i, fa.Kind, fb.Kind)
		}
	}
	if a.Injected == 0 {
		t.Error("rate 0.25 over 1000 rolls injected nothing")
	}
	if a.Injected != b.Injected {
		t.Errorf("injected counts diverged: %d vs %d", a.Injected, b.Injected)
	}
}

func TestChaosRateRoughlyHonored(t *testing.T) {
	c := NewChaos(0.1, 7)
	const n = 20000
	for i := 0; i < n; i++ {
		c.Roll("op")
	}
	got := float64(c.Injected) / n
	if got < 0.05 || got > 0.15 {
		t.Errorf("injection rate = %.3f, want ~0.1", got)
	}
	if c.Calls != n {
		t.Errorf("Calls = %d, want %d", c.Calls, n)
	}
}

func TestChaosZeroRateNeverFires(t *testing.T) {
	c := NewChaos(0, 1)
	for i := 0; i < 1000; i++ {
		if f := c.Roll("op"); f != nil {
			t.Fatalf("rate-0 chaos fired: %v", f)
		}
	}
}

func TestParseChaos(t *testing.T) {
	if c, err := ParseChaos("0.05:42"); c == nil || err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if c, err := ParseChaos("0.05"); c == nil || err != nil {
		t.Errorf("seedless spec rejected: %v", err)
	}
	// An unset/empty spec means disarmed, not an error.
	if c, err := ParseChaos(""); c != nil || err != nil {
		t.Errorf("empty spec: got (%v, %v), want (nil, nil)", c, err)
	}
	for _, bad := range []string{"zero", "-1", "0", "1.5", "0.5:notanumber", "0.05:12x", "0.05:12:9", "NaN", "1e-20"} {
		c, err := ParseChaos(bad)
		if err == nil {
			t.Errorf("malformed spec %q accepted", bad)
		}
		if c != nil {
			t.Errorf("malformed spec %q returned an injector", bad)
		}
	}
	// Same spec, same sequence.
	a, _ := ParseChaos("0.2:9")
	b, _ := ParseChaos("0.2:9")
	for i := 0; i < 100; i++ {
		if (a.Roll("x") == nil) != (b.Roll("x") == nil) {
			t.Fatal("identical specs diverged")
		}
	}
}

// TestParseChaosSeedlessMatchesZeroSeed pins the seed-default contract:
// a seedless HEALERS_CHAOS spec replays the same fault sequence as
// NewChaos with a zero seed — the divergence this test guards against
// had ParseChaos defaulting to seed 1 while NewChaos folded 0 to its
// golden-ratio constant.
func TestParseChaosSeedlessMatchesZeroSeed(t *testing.T) {
	parsed, err := ParseChaos("0.3")
	if err != nil {
		t.Fatal(err)
	}
	direct := NewChaos(0.3, 0)
	for i := 0; i < 1000; i++ {
		fp, fd := parsed.Roll("op"), direct.Roll("op")
		if (fp == nil) != (fd == nil) {
			t.Fatalf("roll %d diverged: parsed=%v direct=%v", i, fp, fd)
		}
		if fp != nil && fp.Kind != fd.Kind {
			t.Fatalf("roll %d kind diverged: %v vs %v", i, fp.Kind, fd.Kind)
		}
	}
	if parsed.Injected != direct.Injected {
		t.Errorf("injected counts diverged: %d vs %d", parsed.Injected, direct.Injected)
	}
}

func TestScriptedChaos(t *testing.T) {
	c := NewScriptedChaos([]ScriptedFault{
		{Call: 2, Kind: FaultAbort},
		{Call: 4, Silent: true},
	})
	c.TraceOps = true
	if f := c.Roll("a"); f != nil {
		t.Fatalf("call 1 faulted: %v", f)
	}
	f := c.Roll("b")
	if f == nil || f.Kind != FaultAbort || f.Op != "b" {
		t.Fatalf("call 2 = %v, want scripted abort on b", f)
	}
	if c.Injected != 1 {
		t.Errorf("Injected = %d, want 1", c.Injected)
	}
	if f := c.Roll("c"); f != nil {
		t.Fatalf("call 3 faulted: %v", f)
	}
	if c.CorruptPending() {
		t.Fatal("corruption pending before the silent call")
	}
	if f := c.Roll("d"); f != nil {
		t.Fatalf("silent call 4 returned a fault: %v", f)
	}
	if !c.CorruptPending() {
		t.Fatal("no corruption pending after the silent call")
	}
	if c.CorruptPending() {
		t.Error("CorruptPending did not clear on read")
	}
	c.NoteCorrupted()
	if c.Corrupted != 1 || c.Injected != 2 {
		t.Errorf("Corrupted/Injected = %d/%d, want 1/2", c.Corrupted, c.Injected)
	}
	if len(c.Ops) != 4 || c.Ops[0] != "a" || c.Ops[3] != "d" {
		t.Errorf("Ops = %v, want the four rolled op names", c.Ops)
	}
}

func TestScriptedChaosEmptyScriptCounts(t *testing.T) {
	c := NewScriptedChaos(nil)
	for i := 0; i < 100; i++ {
		if f := c.Roll("op"); f != nil {
			t.Fatalf("golden-mode injector fired: %v", f)
		}
	}
	if c.Calls != 100 || c.Injected != 0 {
		t.Errorf("Calls/Injected = %d/%d, want 100/0", c.Calls, c.Injected)
	}
	if c.Ops != nil {
		t.Errorf("ops recorded without TraceOps: %v", c.Ops)
	}
}

// FuzzParseChaos: no spec panics, and an accepted spec round-trips: its
// rate and seed rendered back in the RATE:SEED format parse to the same
// injector.
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil || c == nil {
			if c != nil {
				t.Fatalf("ParseChaos(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		again := fmt.Sprintf("%s:%d", c.Spec(), c.state)
		back, err := ParseChaos(again)
		if err != nil {
			t.Fatalf("ParseChaos(%q) accepted, its rendering %q rejected: %v", spec, again, err)
		}
		if back.threshold != c.threshold || back.state != c.state {
			t.Fatalf("ParseChaos(%q) = (threshold %d, seed %d), round trip via %q = (%d, %d)",
				spec, c.threshold, c.state, again, back.threshold, back.state)
		}
	})
}
