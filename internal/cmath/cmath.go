// Package cmath implements the simulated math library "libm.so.6": a
// second shared object in the system, so the toolkit's scans enumerate
// more than one library (demo §3.1) and the fault-injection campaign has
// a contrast class — math functions take scalar doubles, signal domain
// errors through errno (EDOM/ERANGE) instead of crashing, and therefore
// derive the weakest possible robust types.
//
// Doubles travel through cval.Value as IEEE-754 bit patterns, the same
// convention the printf %f verb uses.
package cmath

import (
	"fmt"
	"math"

	"healers/internal/cheader"
	"healers/internal/cmem"
	"healers/internal/cval"
	"healers/internal/simelf"
)

// Soname is the simulated math library's name.
const Soname = "libm.so.6"

// header declares the implemented functions.
const header = `
/* math.h — simulated math library */
double sqrt(double x);
double pow(double x, double y);
double log(double x);
double exp(double x);
double sin(double x);
double cos(double x);
double floor(double x);
double ceil(double x);
double fabs(double x);
double fmod(double x, double y);
double atan2(double y, double x);
int isnan_d(double x);
`

// d wraps a float64 into a Value.
func d(v float64) cval.Value { return cval.Uint(math.Float64bits(v)) }

// f unwraps argument i as a float64.
func f(args []cval.Value, i int) float64 {
	if i >= len(args) {
		return 0
	}
	return math.Float64frombits(uint64(args[i]))
}

// unary adapts a float function, setting EDOM when dom reports a domain
// violation (NaN results from bad inputs, like C's math library).
func unary(fn func(float64) float64, dom func(float64) bool) cval.CFunc {
	return func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		x := f(args, 0)
		if dom != nil && dom(x) {
			env.Errno = cval.EDOM
			return d(math.NaN()), nil
		}
		return d(fn(x)), nil
	}
}

// AsLibrary builds the installable libm.so.6.
func AsLibrary() (*simelf.Library, error) {
	protos, errs := cheader.ParseHeader("math.h", header)
	if len(errs) > 0 {
		return nil, fmt.Errorf("cmath: parsing math.h: %v", errs[0])
	}
	impls := map[string]cval.CFunc{
		"sqrt": unary(math.Sqrt, func(x float64) bool { return x < 0 }),
		"log":  unary(math.Log, func(x float64) bool { return x <= 0 }),
		"exp": func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
			x := f(args, 0)
			r := math.Exp(x)
			if math.IsInf(r, 0) {
				env.Errno = cval.ERANGE
			}
			return d(r), nil
		},
		"sin":   unary(math.Sin, nil),
		"cos":   unary(math.Cos, nil),
		"floor": unary(math.Floor, nil),
		"ceil":  unary(math.Ceil, nil),
		"fabs":  unary(math.Abs, nil),
		"pow": func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
			x, y := f(args, 0), f(args, 1)
			if x < 0 && y != math.Trunc(y) {
				env.Errno = cval.EDOM
				return d(math.NaN()), nil
			}
			r := math.Pow(x, y)
			if math.IsInf(r, 0) && !math.IsInf(x, 0) && !math.IsInf(y, 0) {
				env.Errno = cval.ERANGE
			}
			return d(r), nil
		},
		"fmod": func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
			x, y := f(args, 0), f(args, 1)
			if y == 0 {
				env.Errno = cval.EDOM
				return d(math.NaN()), nil
			}
			return d(math.Mod(x, y)), nil
		},
		"atan2": func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
			return d(math.Atan2(f(args, 0), f(args, 1))), nil
		},
		"isnan_d": func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
			return cval.Bool(math.IsNaN(f(args, 0))), nil
		},
	}
	lib := simelf.NewLibrary(Soname)
	for _, p := range protos {
		fn, ok := impls[p.Name]
		if !ok {
			return nil, fmt.Errorf("cmath: %s declared but not implemented", p.Name)
		}
		lib.ExportWithProto(p, fn)
		delete(impls, p.Name)
	}
	if len(impls) != 0 {
		return nil, fmt.Errorf("cmath: %d implementations lack declarations", len(impls))
	}
	return lib, nil
}

// Bits converts a float64 to its Value representation (for callers
// constructing math arguments).
func Bits(v float64) cval.Value { return d(v) }

// Float converts a returned Value back to float64.
func Float(v cval.Value) float64 { return math.Float64frombits(uint64(v)) }
