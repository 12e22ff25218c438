// Robustness-regression gate: compare a freshly derived robust API
// against a checked-in baseline document and report every function whose
// robustness regressed — the CI check behind `healers-inject
// -verify-baseline`. A regression is a derived weakest robust type that
// got *weaker* (a larger lattice level is now required to survive), a
// function that gained robustness failures, or a baseline function the
// fresh derivation no longer covers. Improvements (a check got stronger,
// failures dropped) are reported separately and never fail the gate.
package core

import (
	"fmt"
	"sort"

	"healers/internal/ctypes"
	"healers/internal/inject"
	"healers/internal/xmlrep"
)

// BaselineDiff is one difference between a fresh derivation and the
// baseline.
type BaselineDiff struct {
	// Func is the function; Param the parameter name ("" for
	// function-level differences).
	Func  string
	Param string
	// Kind classifies the difference: "weaker", "gained-failures",
	// "missing-function", "new-function", "param-mismatch" are
	// regressions; "stronger" and "fewer-failures" are improvements.
	Kind string
	// Detail is the human-readable explanation.
	Detail string
}

// String renders the difference as one report line: function, parameter
// when there is one, kind, and detail.
func (d BaselineDiff) String() string {
	if d.Param != "" {
		return fmt.Sprintf("%s (param %s): %s — %s", d.Func, d.Param, d.Kind, d.Detail)
	}
	return fmt.Sprintf("%s: %s — %s", d.Func, d.Kind, d.Detail)
}

// NewBaselineDoc renders a campaign report as the baseline document the
// regression gate diffs against: the robust-API document extended with
// each function's failure count, and with the Generated timestamp
// cleared so regeneration over unchanged results is byte-identical —
// a baseline that never changes must never show a diff.
func NewBaselineDoc(library string, lr *inject.LibReport) *xmlrep.RobustAPIDoc {
	doc := xmlrep.NewRobustAPIDoc(library, lr.RobustAPI())
	doc.Generated = ""
	for i := range doc.Funcs {
		if fr := lr.Func(doc.Funcs[i].Name); fr != nil {
			doc.Funcs[i].Failures = fr.Failures
		}
	}
	return doc
}

// levelIndex decodes a robust-level name within its chain, treating
// "uncontainable" as one past the strongest level — the same ordering
// the campaign derives (larger == weaker robust type, i.e. a stronger
// check is required before the call is safe).
func levelIndex(chainName, level string) (int, error) {
	chain, ok := ctypes.ChainByName(chainName)
	if !ok {
		return 0, fmt.Errorf("core: unknown chain %q", chainName)
	}
	if level == "uncontainable" {
		return len(chain.Levels), nil
	}
	idx := chain.LevelIndex(level)
	if idx < 0 {
		return 0, fmt.Errorf("core: unknown level %q of chain %q", level, chainName)
	}
	return idx, nil
}

// CompareToBaseline diffs a fresh campaign report against a baseline
// document. It returns the regressions (which should fail a CI gate) and
// the improvements (informational) separately, both sorted by function
// then parameter. An error means the documents could not be compared at
// all (unknown chain or level names), not that a regression was found.
func CompareToBaseline(fresh *inject.LibReport, base *xmlrep.RobustAPIDoc) (regressions, improvements []BaselineDiff, err error) {
	baseFuncs := make(map[string]*xmlrep.RobustFuncXML, len(base.Funcs))
	for i := range base.Funcs {
		baseFuncs[base.Funcs[i].Name] = &base.Funcs[i]
	}
	seen := make(map[string]bool, len(fresh.Funcs))
	for _, fr := range fresh.Funcs {
		seen[fr.Name] = true
		bf, ok := baseFuncs[fr.Name]
		if !ok {
			regressions = append(regressions, BaselineDiff{
				Func: fr.Name, Kind: "new-function",
				Detail: "not in baseline; regenerate it with -write-baseline",
			})
			continue
		}
		if len(bf.Params) != len(fr.Verdicts) {
			regressions = append(regressions, BaselineDiff{
				Func: fr.Name, Kind: "param-mismatch",
				Detail: fmt.Sprintf("baseline has %d parameters, fresh derivation has %d", len(bf.Params), len(fr.Verdicts)),
			})
			continue
		}
		for i, v := range fr.Verdicts {
			bp := bf.Params[i]
			if bp.Chain != v.Chain {
				regressions = append(regressions, BaselineDiff{
					Func: fr.Name, Param: v.Name, Kind: "param-mismatch",
					Detail: fmt.Sprintf("chain changed %s -> %s", bp.Chain, v.Chain),
				})
				continue
			}
			baseLvl, lerr := levelIndex(bp.Chain, bp.Level)
			if lerr != nil {
				return nil, nil, fmt.Errorf("baseline %s param %s: %w", fr.Name, bp.Name, lerr)
			}
			switch {
			case v.Level > baseLvl:
				regressions = append(regressions, BaselineDiff{
					Func: fr.Name, Param: v.Name, Kind: "weaker",
					Detail: fmt.Sprintf("robust type weakened: %s -> %s", bp.Level, v.LevelName),
				})
			case v.Level < baseLvl:
				improvements = append(improvements, BaselineDiff{
					Func: fr.Name, Param: v.Name, Kind: "stronger",
					Detail: fmt.Sprintf("robust type strengthened: %s -> %s", bp.Level, v.LevelName),
				})
			}
		}
		switch {
		case fr.Failures > bf.Failures:
			regressions = append(regressions, BaselineDiff{
				Func: fr.Name, Kind: "gained-failures",
				Detail: fmt.Sprintf("robustness failures %d -> %d", bf.Failures, fr.Failures),
			})
		case fr.Failures < bf.Failures:
			improvements = append(improvements, BaselineDiff{
				Func: fr.Name, Kind: "fewer-failures",
				Detail: fmt.Sprintf("robustness failures %d -> %d", bf.Failures, fr.Failures),
			})
		}
	}
	for name := range baseFuncs {
		if !seen[name] {
			regressions = append(regressions, BaselineDiff{
				Func: name, Kind: "missing-function",
				Detail: "in baseline but absent from the fresh derivation",
			})
		}
	}
	sortDiffs(regressions)
	sortDiffs(improvements)
	return regressions, improvements, nil
}

func sortDiffs(ds []BaselineDiff) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Func != ds[j].Func {
			return ds[i].Func < ds[j].Func
		}
		return ds[i].Param < ds[j].Param
	})
}

// VerifyBaseline runs a (typically cache-accelerated) campaign against
// the library and diffs the derivation against the marshalled baseline
// document. Campaign options — in particular inject.WithCache — apply to
// the sweep.
func (t *Toolkit) VerifyBaseline(soname string, baseline []byte, opts ...inject.CampaignOption) (regressions, improvements []BaselineDiff, err error) {
	base, err := xmlrep.Unmarshal[xmlrep.RobustAPIDoc](baseline)
	if err != nil {
		return nil, nil, err
	}
	lr, err := t.Inject(soname, opts...)
	if err != nil {
		return nil, nil, err
	}
	return CompareToBaseline(lr, base)
}
