package inject

import (
	"testing"

	"healers/internal/simelf"
	"healers/internal/victim"
	"healers/internal/xmlrep"
)

// textutilScenario is the standard stateful-victim scenario the sequence
// tests run: a deterministic word-processing workload whose strdup'ed
// tokens stay in heap memory until exit, so a corrupted byte survives to
// the end-of-run state digest.
func textutilScenario(t *testing.T) (*simelf.System, SequenceScenario) {
	t.Helper()
	sys := simelf.NewSystem()
	if err := victim.InstallAll(sys); err != nil {
		t.Fatal(err)
	}
	return sys, SequenceScenario{
		Name:  "textutil-words",
		App:   victim.TextutilName,
		Stdin: "delta alpha charlie bravo\n",
	}
}

func runSequence(t *testing.T, opts ...SequenceOption) *SequenceReport {
	t.Helper()
	sys, scen := textutilScenario(t)
	sc, err := NewSequence(sys, scen, opts...)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestSequenceCampaignCoversClassesAndPairs(t *testing.T) {
	report := runSequence(t)
	if report.Calls == 0 {
		t.Fatal("golden run counted no calls")
	}
	if len(report.GoldenOps) != int(report.Calls) {
		t.Fatalf("golden ops %d != calls %d", len(report.GoldenOps), report.Calls)
	}
	// 4 positions × 5 classes singles + 3 consecutive pairs × 25 combos.
	wantRuns := 4*len(seqClasses) + 3*len(seqClasses)*len(seqClasses)
	if len(report.Runs) != wantRuns {
		t.Fatalf("runs = %d, want %d", len(report.Runs), wantRuns)
	}
	if report.Probes != len(report.Runs) {
		t.Errorf("probes %d != runs %d", report.Probes, len(report.Runs))
	}
	// An unprotected victim dying on its first injected crash is the
	// expected bulk outcome.
	if report.Failures == 0 {
		t.Error("no failures recorded; injected crashes must kill the bare victim")
	}
	for _, run := range report.Runs {
		for _, s := range run.Steps {
			if s.Func == "" {
				t.Fatalf("step at call %d has no golden function label", s.Call)
			}
		}
	}
}

func TestSequenceCampaignDeterministic(t *testing.T) {
	a := runSequence(t).ToXML()
	b := runSequence(t).ToXML()
	if a.Checksum != b.Checksum {
		t.Fatalf("sequence reports diverged across identical runs:\n a=%s\n b=%s", a.Checksum, b.Checksum)
	}
	if err := xmlrep.Verify(a); err != nil {
		t.Fatal(err)
	}
	data, err := xmlrep.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := xmlrep.Kind(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlrep.KindSequenceReport {
		t.Fatalf("sniffed kind %q, want %q", kind, xmlrep.KindSequenceReport)
	}
	doc, err := xmlrep.Unmarshal[xmlrep.SequenceReportDoc](data)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlrep.Verify(doc); err != nil {
		t.Fatalf("round-tripped report failed validation: %v", err)
	}
}

// TestSequenceSilentCorruptionDetected is the acceptance scenario: a
// scripted Silent fault lets its call succeed and flips one committed
// byte; the run exits 0 with no fault — errno-only classification calls
// it a success — but the journal-diff digest diverges from the golden
// run and the engine classifies it silent-corruption.
func TestSequenceSilentCorruptionDetected(t *testing.T) {
	report := runSequence(t)
	var hit *SequenceRun
	for i := range report.Runs {
		if report.Runs[i].Outcome == OutcomeSilentCorruption {
			hit = &report.Runs[i]
			break
		}
	}
	if hit == nil {
		t.Fatal("no run classified silent-corruption; the Silent fault script must corrupt surviving state")
	}
	// The regression half: prove the errno-visible axis reports success,
	// i.e. the pre-journal-diff classification (fault/exit/errno only)
	// would have called this run OK.
	if hit.Fault != nil {
		t.Errorf("silent-corruption run carries a fault: %v", hit.Fault)
	}
	if hit.Exit != 0 {
		t.Errorf("silent-corruption run exit = %d, want 0", hit.Exit)
	}
	legacy := OutcomeOK
	if hit.Fault != nil || hit.Exit != 0 {
		legacy = OutcomeErrno
	}
	if legacy != OutcomeOK {
		t.Fatal("errno-only classification no longer reports success; regression premise broken")
	}
	if !hit.Diverged {
		t.Error("silent-corruption run not marked diverged")
	}
	if funcs := report.SilentCorruptions(); len(funcs) == 0 {
		t.Error("SilentCorruptions() attributed no functions")
	}
	if !OutcomeSilentCorruption.Failure() {
		t.Error("silent-corruption must count as a robustness failure")
	}
}
