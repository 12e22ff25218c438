package core

import (
	"strings"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/collect"
	"healers/internal/inject"
	"healers/internal/proc"
	"healers/internal/victim"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

func newToolkit(t *testing.T) *Toolkit {
	t.Helper()
	tk, err := NewToolkit()
	if err != nil {
		t.Fatalf("NewToolkit: %v", err)
	}
	if err := tk.InstallSampleApps(); err != nil {
		t.Fatalf("InstallSampleApps: %v", err)
	}
	return tk
}

func TestScanLibrary(t *testing.T) {
	tk := newToolkit(t)
	libs := tk.ListLibraries()
	if len(libs) != 2 || libs[0] != clib.LibcSoname || libs[1] != "libm.so.6" {
		t.Fatalf("ListLibraries = %v", libs)
	}
	scan, err := tk.ScanLibrary(clib.LibcSoname)
	if err != nil {
		t.Fatalf("ScanLibrary: %v", err)
	}
	if len(scan.Functions) < 60 {
		t.Errorf("scan found %d functions", len(scan.Functions))
	}
	if scan.Protos["strcpy"] == nil {
		t.Error("scan missing strcpy prototype")
	}
	decl := scan.Declarations()
	if len(decl.Funcs) != len(scan.Functions) {
		t.Errorf("declaration file covers %d of %d functions", len(decl.Funcs), len(scan.Functions))
	}
	data, err := xmlrep.Marshal(decl)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.Contains(string(data), `name="strcpy"`) {
		t.Error("declaration XML missing strcpy")
	}
	if _, err := tk.ScanLibrary("nope.so"); err == nil {
		t.Error("ScanLibrary of unknown library succeeded")
	}
}

func TestScanApplication(t *testing.T) {
	tk := newToolkit(t)
	apps := tk.ListApplications()
	if len(apps) != 5 {
		t.Fatalf("ListApplications = %v", apps)
	}
	scan, err := tk.ScanApplication(victim.RootdName)
	if err != nil {
		t.Fatalf("ScanApplication: %v", err)
	}
	if len(scan.AllLibs) != 1 || scan.AllLibs[0] != clib.LibcSoname {
		t.Errorf("AllLibs = %v", scan.AllLibs)
	}
	if len(scan.Undefined) == 0 {
		t.Fatal("no undefined symbols reported")
	}
	if scan.ResolvedBy["memcpy"] != clib.LibcSoname {
		t.Errorf("memcpy resolved by %q", scan.ResolvedBy["memcpy"])
	}
	out := RenderAppScan(scan)
	for _, want := range []string{"application: rootd", "libc.so.6", "memcpy", "system"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered scan missing %q:\n%s", want, out)
		}
	}
	if _, err := tk.ScanApplication("nope"); err == nil {
		t.Error("ScanApplication of unknown app succeeded")
	}
}

func TestInjectFunctionThroughToolkit(t *testing.T) {
	tk := newToolkit(t)
	fr, err := tk.InjectFunction(clib.LibcSoname, "strlen")
	if err != nil {
		t.Fatalf("InjectFunction: %v", err)
	}
	if fr.Failures == 0 {
		t.Error("strlen reported no failures")
	}
}

// TestVerifyHardening is the toolkit-level T2 experiment: derive the
// robust API, wrap, and show campaign failures drop to zero.
func TestVerifyHardening(t *testing.T) {
	if testing.Short() {
		t.Skip("full double campaign in -short mode")
	}
	tk := newToolkit(t)
	h, api, err := tk.VerifyHardening(clib.LibcSoname)
	if err != nil {
		t.Fatalf("VerifyHardening: %v", err)
	}
	if h.Before.TotalFailures == 0 {
		t.Fatal("baseline campaign found no failures")
	}
	if h.After.TotalFailures != 0 {
		var bad []string
		for _, fr := range h.After.Funcs {
			if fr.Failures > 0 {
				bad = append(bad, fr.Name)
			}
		}
		t.Fatalf("wrapped campaign still has %d failures in %v", h.After.TotalFailures, bad)
	}
	if len(api) == 0 {
		t.Error("empty robust API")
	}
	out := RenderHardening(h)
	if !strings.Contains(out, "total failures:") || !strings.Contains(out, " 0 after") {
		t.Errorf("hardening report:\n%s", out)
	}
	// The derived API for strcpy matches the paper's worked example.
	var destLevel string
	for _, p := range api["strcpy"] {
		if p.Name == "dest" {
			destLevel = p.LevelName
		}
	}
	if destLevel != "writable_sized" {
		t.Errorf("strcpy dest derived %q", destLevel)
	}
	// Campaign rendering sanity.
	table := RenderCampaign(h.Before)
	for _, want := range []string{"strcpy", "writable_sized", "functions had at least one robustness failure"} {
		if !strings.Contains(table, want) {
			t.Errorf("campaign table missing %q", want)
		}
	}
}

func TestRunProfiled(t *testing.T) {
	tk := newToolkit(t)
	rr, err := tk.RunProfiled(victim.TextutilName, "profiled run of the toolkit\n")
	if err != nil {
		t.Fatalf("RunProfiled: %v", err)
	}
	if rr.Proc.Crashed() || rr.Proc.Status != 0 {
		t.Fatalf("profiled run: %v", rr.Proc)
	}
	if rr.Profile.TotalCalls() == 0 {
		t.Fatal("profile collected no calls")
	}
	var sawStrtok bool
	for _, f := range rr.Profile.Funcs {
		if f.Name == "strtok" && f.Calls > 0 {
			sawStrtok = true
		}
	}
	if !sawStrtok {
		t.Error("profile missing strtok calls")
	}
	report := RenderProfile(rr.Profile)
	for _, want := range []string{"call frequency:", "execution time share:", "strtok"} {
		if !strings.Contains(report, want) {
			t.Errorf("profile report missing %q:\n%s", want, report)
		}
	}
}

func TestWrapperSource(t *testing.T) {
	tk := newToolkit(t)
	src, err := tk.WrapperSource("profiling", clib.LibcSoname, "wctrans", nil)
	if err != nil {
		t.Fatalf("WrapperSource: %v", err)
	}
	if !strings.Contains(src, "wctrans_t wctrans(const char* a1)") {
		t.Errorf("profiling source:\n%s", src)
	}
	if _, err := tk.WrapperSource("bogus", clib.LibcSoname, "wctrans", nil); err == nil {
		t.Error("unknown wrapper kind accepted")
	}
	if _, err := tk.WrapperSource("profiling", clib.LibcSoname, "no_fn", nil); err == nil {
		t.Error("unknown function accepted")
	}
	src, err = tk.WrapperSource("security", clib.LibcSoname, "strcpy", nil)
	if err != nil {
		t.Fatalf("security WrapperSource: %v", err)
	}
	if !strings.Contains(src, "healers_heap_check") {
		t.Errorf("security source missing heap check:\n%s", src)
	}
}

func TestGenerateWrappersAndRun(t *testing.T) {
	tk := newToolkit(t)
	if _, err := tk.GenerateSecurityWrapper(clib.LibcSoname, nil); err != nil {
		t.Fatalf("GenerateSecurityWrapper: %v", err)
	}
	st, ok := tk.WrapperState(wrappers.SecuritySoname)
	if !ok || st == nil {
		t.Fatal("no state for security wrapper")
	}
	// Exploit is stopped.
	res, err := tk.Run(victim.RootdName, []string{wrappers.SecuritySoname}, string(victim.ExploitPacket()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Crashed() {
		t.Fatalf("exploit not stopped: %v", res)
	}
	if st.Overflows == 0 {
		t.Error("security state did not count the overflow")
	}
	// And the undefended run spawns the shell.
	res, err = tk.Run(victim.RootdName, nil, string(victim.ExploitPacket()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashed() {
		t.Fatalf("undefended exploit crashed: %v", res)
	}
}

func TestLinkmapQuery(t *testing.T) {
	tk := newToolkit(t)
	if _, err := tk.GenerateProfilingWrapper(clib.LibcSoname, nil); err != nil {
		t.Fatal(err)
	}
	lm, err := tk.Linkmap(victim.StressName, []string{wrappers.ProfilingSoname})
	if err != nil {
		t.Fatalf("Linkmap: %v", err)
	}
	if def, _ := lm.DefiningObject("strlen"); def != wrappers.ProfilingSoname {
		t.Errorf("strlen defined by %q, want the preloaded wrapper", def)
	}
	objs := lm.Objects()
	if len(objs) != 2 || objs[0] != wrappers.ProfilingSoname {
		t.Errorf("objects = %v", objs)
	}
}

// TestExitFlushUploadsToCollector exercises the full distributed pipeline
// of §2.3: a wrapped application, configured only through its environment
// (HEALERS_COLLECTOR), uploads its profile to a live TCP collection
// server when it exits.
func TestExitFlushUploadsToCollector(t *testing.T) {
	srv, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	tk := newToolkit(t)
	if _, err := tk.GenerateProfilingWrapper(clib.LibcSoname, nil); err != nil {
		t.Fatal(err)
	}
	p, err := proc.Start(tk.System(), victim.TextutilName,
		proc.WithPreloads(wrappers.ProfilingSoname),
		proc.WithStdin("flush me to the server\n"),
		proc.WithEnvVar(CollectorEnvVar, srv.Addr()),
		proc.WithEnvVar("HEALERS_APP", victim.TextutilName),
	)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	res := p.Run()
	if res.Crashed() || res.Status != 0 {
		t.Fatalf("run: %v (stderr %q)", res, res.Stderr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	logs, err := srv.Profiles()
	if err != nil || len(logs) != 1 {
		t.Fatalf("Profiles = %v, %v", logs, err)
	}
	if logs[0].App != victim.TextutilName {
		t.Errorf("uploaded app = %q", logs[0].App)
	}
	if logs[0].TotalCalls() == 0 {
		t.Error("uploaded profile has no calls")
	}
	// Without the env var, no upload happens.
	p, err = proc.Start(tk.System(), victim.TextutilName,
		proc.WithPreloads(wrappers.ProfilingSoname),
		proc.WithStdin("no collector configured\n"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res := p.Run(); res.Crashed() {
		t.Fatalf("unconfigured run crashed: %v", res)
	}
	time.Sleep(20 * time.Millisecond)
	if srv.Count() != 1 {
		t.Errorf("server has %d docs, want still 1", srv.Count())
	}
}

func TestLoadRobustAPIXMLRoundTrip(t *testing.T) {
	tk := newToolkit(t)
	fr, err := tk.InjectFunction(clib.LibcSoname, "strcpy")
	if err != nil {
		t.Fatal(err)
	}
	lr := &inject.LibReport{Funcs: []*inject.FuncReport{fr}}
	api := lr.RobustAPI()
	data, err := xmlrep.Marshal(xmlrep.NewRobustAPIDoc(clib.LibcSoname, api))
	if err != nil {
		t.Fatal(err)
	}
	back, err := tk.LoadRobustAPIXML(data)
	if err != nil {
		t.Fatalf("LoadRobustAPIXML: %v", err)
	}
	if len(back["strcpy"]) != 2 || back["strcpy"][0].LevelName != "writable_sized" {
		t.Errorf("round-tripped API = %+v", back["strcpy"])
	}
	// A wrapper generated from the stored artifact still denies bad calls.
	if _, err := tk.GenerateRobustnessWrapper(clib.LibcSoname, back, []string{"strcpy"}); err != nil {
		t.Fatalf("GenerateRobustnessWrapper: %v", err)
	}
	if _, err := tk.LoadRobustAPIXML([]byte("not xml")); err == nil {
		t.Error("junk XML accepted")
	}
}

func TestCompareInjectionModesThroughToolkit(t *testing.T) {
	tk := newToolkit(t)
	cmp, err := tk.CompareInjectionModes(clib.LibcSoname, "strncpy")
	if err != nil {
		t.Fatalf("CompareInjectionModes: %v", err)
	}
	if cmp.SingleProbes == 0 || cmp.PairProbes <= cmp.SingleProbes {
		t.Errorf("probe counts: single %d, pair %d", cmp.SingleProbes, cmp.PairProbes)
	}
}

// TestChaosSurvival is the recovery layer's headline experiment at the
// toolkit level: the same workload under the same deterministic fault
// sequence dies unprotected and completes with the containment wrapper
// preloaded.
func TestChaosSurvival(t *testing.T) {
	tk := newToolkit(t)
	if _, err := tk.GenerateContainmentWrapper(clib.LibcSoname, nil, nil, nil); err != nil {
		t.Fatalf("GenerateContainmentWrapper: %v", err)
	}

	const rate, seed = 0.05, 1234
	bare, err := tk.RunChaos(victim.StressName, rate, seed, nil, "", "50")
	if err != nil {
		t.Fatalf("RunChaos unprotected: %v", err)
	}
	if !bare.Proc.Crashed() {
		t.Fatalf("unprotected chaos run did not crash: %s (injected %d)", bare.Proc, bare.Injected)
	}
	if bare.Injected == 0 {
		t.Error("unprotected run reports zero injected faults")
	}

	wrapped, err := tk.RunChaos(victim.StressName, rate, seed,
		[]string{wrappers.ContainmentSoname}, "", "50")
	if err != nil {
		t.Fatalf("RunChaos wrapped: %v", err)
	}
	if wrapped.Proc.Crashed() {
		t.Fatalf("wrapped chaos run crashed: %s", wrapped.Proc)
	}
	// Survival must be earned, not vacuous: the injector fired during
	// the wrapped run and the wrapper contained every fault.
	if wrapped.Injected == 0 {
		t.Fatal("wrapped run saw no injected faults; survival proves nothing")
	}
	st, ok := tk.WrapperState(wrappers.ContainmentSoname)
	if !ok {
		t.Fatal("containment wrapper state missing")
	}
	contained, _, _ := st.ContainmentTotals()
	if contained != wrapped.Injected {
		t.Errorf("contained %d faults, injector produced %d", contained, wrapped.Injected)
	}
	// Determinism: replaying the seed reproduces the fault count.
	again, err := tk.RunChaos(victim.StressName, rate, seed, nil, "", "50")
	if err != nil {
		t.Fatal(err)
	}
	if again.Injected != bare.Injected || again.Calls != bare.Calls {
		t.Errorf("replay diverged: %d/%d faults, %d/%d calls",
			again.Injected, bare.Injected, again.Calls, bare.Calls)
	}
}

// TestRunContained: the contained run's profile document carries the
// recovery counters, ready for collection and /metrics.
func TestRunContained(t *testing.T) {
	tk := newToolkit(t)
	rr, err := tk.RunContained(victim.StressName, "", nil, "0.05:7", "30")
	if err != nil {
		t.Fatalf("RunContained: %v", err)
	}
	if rr.Proc.Crashed() {
		t.Fatalf("contained run crashed: %s", rr.Proc)
	}
	var contained uint64
	for _, f := range rr.Profile.Funcs {
		contained += f.Contained
	}
	if contained == 0 {
		t.Errorf("profile carries no contained faults:\n%s", RenderProfile(rr.Profile))
	}
	if !strings.Contains(RenderProfile(rr.Profile), "fault containment") {
		t.Error("rendered profile missing the containment section")
	}
	// A second run resets the counters: the profile reports one run.
	rr2, err := tk.RunContained(victim.StressName, "", nil, "", "5")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rr2.Profile.Funcs {
		if f.Contained != 0 {
			t.Errorf("%s: stale contained count %d after chaos-free run", f.Name, f.Contained)
		}
	}
}

// TestRunSoak: the sustained-chaos soak of the streaming daemons. The
// contained daemon must survive the whole request window with a nonzero
// recovery-policy hit rate; the bare daemon must die partway through.
func TestRunSoak(t *testing.T) {
	tk := newToolkit(t)
	const requests, rate, seed = 40, 0.05, 99

	for _, app := range []string{victim.RootdName, victim.StackdName} {
		bare, err := tk.RunSoak(app, requests, rate, seed, false)
		if err != nil {
			t.Fatalf("RunSoak %s bare: %v", app, err)
		}
		if bare.Survived {
			t.Fatalf("%s: unprotected soak survived %d requests under chaos (injected %d)",
				app, requests, bare.Injected)
		}
		if bare.Injected == 0 {
			t.Errorf("%s: unprotected soak saw no injected faults", app)
		}
		if bare.Served >= requests {
			t.Errorf("%s: unprotected soak served all %d requests despite dying", app, requests)
		}

		soak, err := tk.RunSoak(app, requests, rate, seed, true)
		if err != nil {
			t.Fatalf("RunSoak %s contained: %v", app, err)
		}
		if !soak.Survived {
			t.Fatalf("%s: contained soak died: %s (served %d/%d, injected %d, contained %d)",
				app, soak.Proc, soak.Served, requests, soak.Injected, soak.ContainedFaults)
		}
		if soak.Served != requests {
			t.Errorf("%s: contained soak served %d/%d requests", app, soak.Served, requests)
		}
		if soak.Injected == 0 {
			t.Errorf("%s: contained soak saw no injected faults; survival proves nothing", app)
		}
		if hr := soak.PolicyHitRate(); hr <= 0 || hr > 1 {
			t.Errorf("%s: policy hit rate %v outside (0,1]", app, hr)
		}
		if soak.P99NS < soak.P50NS {
			t.Errorf("%s: p99 %dns < p50 %dns", app, soak.P99NS, soak.P50NS)
		}

		// Determinism: same seed, same counters.
		again, err := tk.RunSoak(app, requests, rate, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if again.Injected != soak.Injected || again.Calls != soak.Calls {
			t.Errorf("%s: replay diverged: %d/%d faults, %d/%d calls",
				app, again.Injected, soak.Injected, again.Calls, soak.Calls)
		}
	}
}

// TestRunSequenceCampaignThroughToolkit: the facade runs a temporal
// campaign and attributes silent corruptions to the containment
// wrapper's state, so they surface in the profile document.
func TestRunSequenceCampaignThroughToolkit(t *testing.T) {
	tk := newToolkit(t)
	if _, err := tk.GenerateContainmentWrapper(clib.LibcSoname, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	report, err := tk.RunSequenceCampaign(inject.SequenceScenario{
		Name:  "textutil-words",
		App:   victim.TextutilName,
		Stdin: "delta alpha charlie bravo\n",
	})
	if err != nil {
		t.Fatalf("RunSequenceCampaign: %v", err)
	}
	funcs := report.SilentCorruptions()
	if len(funcs) == 0 {
		t.Fatal("sequence campaign caught no silent corruptions")
	}
	st, _ := tk.WrapperState(wrappers.ContainmentSoname)
	var total uint64
	for _, f := range st.Funcs {
		total += f.SilentCorrupt
	}
	if total != uint64(len(funcs)) {
		t.Errorf("wrapper state records %d silent corruptions, campaign found %d", total, len(funcs))
	}
	log := xmlrep.NewProfileLog("sim-host", victim.TextutilName, st)
	var inProfile uint64
	for _, f := range log.Funcs {
		inProfile += f.SilentCorrupt
	}
	if inProfile != total {
		t.Errorf("profile document carries %d silent corruptions, state has %d", inProfile, total)
	}
}
