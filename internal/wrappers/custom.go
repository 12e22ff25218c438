package wrappers

import (
	"fmt"

	"healers/internal/ctypes"
	"healers/internal/gen"
	"healers/internal/simelf"
)

// Custom builds a wrapper from a caller-chosen micro-generator list — the
// §2.3 flexibility claim made concrete: "the micro-generators can be
// combined in a variety of ways to generate new wrapper types". Feature
// names (in composition order):
//
//	call_counter, exectime, collect_errors, func_errors,
//	arg_check, heap_check, bound_check, fmt_check, exit_flush
//
// The prototype and caller micro-generators are always included (first
// and last). api is consulted only by arg_check and may be nil otherwise.
func Custom(target *simelf.Library, soname string, features []string, api ctypes.RobustAPI, names []string) (*simelf.Library, *gen.State, error) {
	micros := []gen.MicroGenerator{gen.MGPrototype()}
	for _, f := range features {
		m, err := microByName(f, api)
		if err != nil {
			return nil, nil, err
		}
		micros = append(micros, m)
	}
	micros = append(micros, gen.MGCaller())
	g, err := gen.NewGenerator(micros...)
	if err != nil {
		return nil, nil, err
	}
	return build(g, target, soname, names, nil)
}

// FeatureNames lists the micro-generator features Custom accepts.
func FeatureNames() []string {
	return []string{
		"call_counter", "exectime", "collect_errors", "func_errors",
		"arg_check", "heap_check", "bound_check", "fmt_check", "exit_flush",
	}
}

func microByName(name string, api ctypes.RobustAPI) (gen.MicroGenerator, error) {
	switch name {
	case "call_counter":
		return gen.MGCallCounter(), nil
	case "exectime":
		return gen.MGExectime(), nil
	case "collect_errors":
		return gen.MGCollectErrors(), nil
	case "func_errors":
		return gen.MGFuncErrors(), nil
	case "arg_check":
		if api == nil {
			return nil, fmt.Errorf("wrappers: arg_check requires a robust API")
		}
		return gen.MGArgCheck(api), nil
	case "heap_check":
		return gen.MGHeapCheck(), nil
	case "bound_check":
		return gen.MGBoundCheck(), nil
	case "fmt_check":
		return gen.MGFmtCheck(), nil
	case "exit_flush":
		return gen.MGExitFlush(), nil
	default:
		return nil, fmt.Errorf("wrappers: unknown feature %q (have %v)", name, FeatureNames())
	}
}
