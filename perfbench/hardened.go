package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/core"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/proc"
	"healers/internal/simelf"
	"healers/internal/victim"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

// baselinePath is the checked-in robust API the hardened-app workload
// enforces and the cold-sweep workload must reproduce.
const baselinePath = "testdata/robust_api_baseline.xml"

// stressIters is the hardened-app workload's fixed stress iteration
// count; each iteration makes nine libc calls, plus open, srand, and
// close once per run.
const stressIters = 200

// hardenedApp is the paper's deployment case: two applications run under
// stacked security, robustness, and profiling wrappers, and the
// profiling wrapper's document is rendered at the end.
type hardenedApp struct {
	sys      *simelf.System
	prof     *gen.State
	preloads []string
	text     string
	// want is the wrapped-call count the seed's inputs determine.
	want uint64
	// stdout is what textutil must print.
	stdout string

	traced       []string
	outer, inner *shim
	probes       layerProbes
}

func setupHardenedApp(seed uint64, traced bool) (bench, error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	api, err := tk.LoadRobustAPIXML(data)
	if err != nil {
		return nil, err
	}
	if _, err := tk.GenerateSecurityWrapper(clib.LibcSoname, nil); err != nil {
		return nil, err
	}
	if _, err := tk.GenerateRobustnessWrapper(clib.LibcSoname, api, nil); err != nil {
		return nil, err
	}
	prof, err := tk.GenerateProfilingWrapper(clib.LibcSoname, nil)
	if err != nil {
		return nil, err
	}
	text := textutilInput(seed)
	textCalls, out := textutilExpect(text, strtokContinues(api))
	h := &hardenedApp{
		sys:      tk.System(),
		prof:     prof,
		preloads: []string{wrappers.SecuritySoname, wrappers.RobustnessSoname, wrappers.ProfilingSoname},
		text:     text,
		want:     9*stressIters + 3 + textCalls,
		stdout:   out,
	}
	if traced {
		if h.outer, h.inner, err = installShims(h.sys); err != nil {
			return nil, err
		}
		h.traced = append(append([]string{outerSoname}, h.preloads...), innerSoname)
	}
	return h, nil
}

// textutilInput generates the seed's text for textutil: 40 lines of 4
// to 12 lowercase words, some followed by punctuation.
func textutilInput(seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, 0x7465787475746931))
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var sb strings.Builder
	for l := 0; l < textLines; l++ {
		n := 4 + rng.IntN(9)
		for k := 0; k < n; k++ {
			if k > 0 {
				sb.WriteByte(' ')
			}
			wl := 2 + rng.IntN(9)
			for j := 0; j < wl; j++ {
				sb.WriteByte(letters[rng.IntN(len(letters))])
			}
			if rng.IntN(6) == 0 {
				p := rng.IntN(6)
				sb.WriteString(",.;:!?"[p : p+1])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// textLines is the line count of the generated textutil input.
const textLines = 40

// strtokContinues reports whether the robustness wrapper generated from
// api lets textutil's strtok(NULL, delim) continuation calls through. As
// gen.MGArgCheck does, it enforces every rung of strtok's first
// parameter's chain from the first above the declared type up to the
// derived level (the strongest one if the level is past the chain).
// The pointer checks reject NULL before they look at memory, so no
// process environment is needed.
//
// The baseline robust API requires a writable string there (the
// campaign probes strtok in a fresh process, where NULL has no saved
// position to continue from), so the continuation calls are denied and
// every line yields only its first word.
func strtokContinues(api ctypes.RobustAPI) bool {
	rules := api["strtok"]
	if len(rules) == 0 {
		return true
	}
	chain, ok := ctypes.ChainByName(rules[0].Chain)
	if !ok {
		return true
	}
	lvl := min(rules[0].Level, chain.Strongest())
	for k := 1; k <= lvl; k++ {
		if !chain.Levels[k].Check(nil, cval.Ptr(0), ctypes.Need{}) {
			return false
		}
	}
	return true
}

// textutilExpect returns the wrapped-call count textutil makes on text
// under the stacked wrappers, as the profiling wrapper counts it, and
// what it prints. continues tells whether strtok(NULL, delim) calls get
// past the robustness wrapper (see strtokContinues); a denied call stops
// there and never reaches the profiling wrapper. Per line textutil
// makes fgets_fd and strtok calls, then per word it keeps strdup and
// strlen, a strtok(NULL, delim) that reaches the profiling wrapper only
// if continues, and a free at the end; then one final fgets_fd, toupper
// per byte of the first word, and qsort, snprintf, puts, and exit.
func textutilExpect(text string, continues bool) (calls uint64, stdout string) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	words, bytes, perWord := 0, 0, 3
	if continues {
		perWord = 4
	}
	first := ""
	for _, line := range lines {
		toks := strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune(" \t\n.,;:!?", r) })
		if !continues && len(toks) > 1 {
			toks = toks[:1]
		}
		if len(toks) > 0 && first == "" {
			first = toks[0]
		}
		for _, t := range toks {
			words++
			bytes += len(t)
		}
	}
	calls = uint64(2*len(lines) + perWord*words + 1 + len(first) + 4)
	return calls, fmt.Sprintf("%d lines, %d words, %d bytes\n\n", len(lines), words, bytes)
}

func (h *hardenedApp) op(_, _ int, traced bool) (int, time.Duration, error) {
	preloads := h.preloads
	if traced {
		preloads = h.traced
		h.outer.take()
		h.inner.take()
	}
	// As Toolkit.RunProfiled does, only the profiling wrapper's counters
	// are zeroed, so the profile reports this operation alone.
	t0 := time.Now()
	h.prof.Reset()
	reset := time.Since(t0)
	stress, err := proc.Start(h.sys, victim.StressName, proc.WithPreloads(preloads...))
	if err != nil {
		return 0, time.Since(t0), err
	}
	r1 := stress.Run(strconv.Itoa(stressIters))
	tu, err := proc.Start(h.sys, victim.TextutilName, proc.WithPreloads(preloads...), proc.WithStdin(h.text))
	if err != nil {
		return 0, time.Since(t0), err
	}
	r2 := tu.Run()
	tr := time.Now()
	log := xmlrep.NewProfileLog("sim-host", "hardened-app", h.prof)
	doc, err := xmlrep.Marshal(log)
	end := time.Now()
	dur := end.Sub(t0)
	if err != nil {
		return 0, dur, err
	}
	if traced {
		h.probes.add("xmlrep.render_us", float64(end.Sub(tr))/1e3)
		h.probes.add("xmlrep.doc_bytes", float64(len(doc)))
		h.probes.add("gen.state_us_per_op", float64(reset)/1e3)
		outer, inner := h.outer.take(), h.inner.take()
		recordShimTimes(&h.probes, outer, inner)
		for k, v := range shimCountMetrics(outer, inner) {
			h.probes.count(k, v)
		}
	}
	for _, r := range []proc.Result{r1, r2} {
		if r.Crashed() || r.Status != 0 {
			return 0, dur, fmt.Errorf("hardened-app: application ended with %s", r)
		}
	}
	if got := log.TotalCalls(); got != h.want {
		return 0, dur, fmt.Errorf("hardened-app: profile counts %d calls, the inputs make %d", got, h.want)
	}
	if r2.Stdout != h.stdout {
		return 0, dur, fmt.Errorf("hardened-app: textutil printed %q, want %q", r2.Stdout, h.stdout)
	}
	return int(h.want), dur, nil
}

func (h *hardenedApp) finish() (map[string]float64, error) {
	if h.outer == nil {
		return nil, nil
	}
	us, err := timeStarts(h.sys, victim.StressName, h.preloads)
	if err != nil {
		return nil, err
	}
	h.probes.add("proc.start_us", us)
	return h.probes.result()
}

func (h *hardenedApp) close() {}
