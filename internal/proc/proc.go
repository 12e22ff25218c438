// Package proc runs simulated processes: it couples a fresh memory image
// and call environment with a link map produced by the dynamic linker, and
// executes a program's main function with fault capture.
//
// A fault anywhere in the call chain terminates the process abnormally
// with the fault as its "signal" — the observable the HEALERS injector
// classifies, and the thing its wrappers exist to prevent.
package proc

import (
	"fmt"

	"healers/internal/cmem"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/simelf"
)

// Result describes how a simulated process ended.
type Result struct {
	// Status is the exit status for normal termination.
	Status int32
	// Fault is non-nil when the process died on a signal.
	Fault *cmem.Fault
	// Stdout and Stderr are the captured console streams.
	Stdout string
	Stderr string
}

// Crashed reports whether the process terminated abnormally.
func (r Result) Crashed() bool { return r.Fault != nil }

// String summarizes the result the way a shell would.
func (r Result) String() string {
	if r.Fault != nil {
		return fmt.Sprintf("killed by %s (%s)", r.Fault.Kind, r.Fault.Error())
	}
	return fmt.Sprintf("exit %d", r.Status)
}

// Option configures process startup.
type Option func(*config)

type config struct {
	preloads []string
	stdin    string
	envVars  map[string]string
}

// WithPreloads sets the LD_PRELOAD-equivalent list of wrapper sonames,
// resolved before everything else.
func WithPreloads(sonames ...string) Option {
	return func(c *config) { c.preloads = append(c.preloads, sonames...) }
}

// WithStdin seeds the process's standard input.
func WithStdin(data string) Option {
	return func(c *config) { c.stdin = data }
}

// WithEnvVar sets an environment variable before main runs.
func WithEnvVar(name, value string) Option {
	return func(c *config) {
		if c.envVars == nil {
			c.envVars = make(map[string]string)
		}
		c.envVars[name] = value
	}
}

// Process is one live simulated process.
type Process struct {
	name string
	exe  *simelf.Executable
	env  *cval.Env
	lm   *dynlink.Linkmap

	// Calls counts dynamic symbol calls, for diagnostics and benches.
	Calls uint64
}

var _ simelf.Caller = (*Process)(nil)

// Start loads exeName from sys with the given options and returns the
// ready-to-run process. It is fork+execve up to (but not including) the
// jump to main.
func Start(sys *simelf.System, exeName string, opts ...Option) (*Process, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	lm, err := dynlink.Load(sys, exeName, cfg.preloads)
	if err != nil {
		return nil, err
	}
	exe := lm.Executable()
	env := cval.NewEnv()
	env.Privileged = exe.Privileged
	env.Stdin.WriteString(cfg.stdin)
	for k, v := range cfg.envVars {
		env.Setenv(k, v)
	}
	// Chaos mode: a HEALERS_CHAOS=RATE[:SEED] variable arms the
	// deterministic runtime fault injector on this process. A malformed
	// spec fails the start — running un-injected when the operator asked
	// for chaos would silently invalidate the experiment.
	if spec, ok := env.GetenvString(ChaosEnvVar); ok {
		chaos, err := cmem.ParseChaos(spec)
		if err != nil {
			return nil, fmt.Errorf("proc: %s: %w", ChaosEnvVar, err)
		}
		env.Chaos = chaos
	}
	return &Process{name: exeName, exe: exe, env: env, lm: lm}, nil
}

// ChaosEnvVar names the environment variable that arms chaos mode on a
// simulated process: "RATE" or "RATE:SEED", e.g. "0.02:1234".
const ChaosEnvVar = "HEALERS_CHAOS"

// Env returns the process's call environment.
func (p *Process) Env() *cval.Env { return p.env }

// Linkmap exposes the process's link map, for tests that check which
// objects a process loaded.
func (p *Process) Linkmap() *dynlink.Linkmap { return p.lm }

// Call resolves symbol through the link map's search order and invokes
// it. This is the PLT: every library call an application makes funnels
// through here, so whatever object wins the search order intercepts the
// call.
func (p *Process) Call(symbol string, args ...cval.Value) (cval.Value, *cmem.Fault) {
	fn, ok := p.lm.Resolve(symbol)
	if !ok {
		return 0, &cmem.Fault{Kind: cmem.FaultAbort, Op: "plt", Detail: fmt.Sprintf("undefined symbol %q", symbol)}
	}
	p.Calls++
	return fn(p.env, args)
}

// mainPanic carries a fault (or exit) out of MustCall back to Run.
type mainPanic struct {
	fault *cmem.Fault
	exit  bool
}

// MustCall is Call for program main functions: a fault unwinds straight
// out of main (the process dies on the signal), and a latched exit()
// stops execution, matching C control flow without threading error
// returns through every line of application code.
func (p *Process) MustCall(symbol string, args ...cval.Value) cval.Value {
	v, f := p.Call(symbol, args...)
	if f != nil {
		panic(mainPanic{fault: f})
	}
	if p.env.Exited {
		panic(mainPanic{exit: true})
	}
	return v
}

// Raise terminates the process with the given fault, unwinding out of the
// program's main.
func (p *Process) Raise(f *cmem.Fault) {
	panic(mainPanic{fault: f})
}

// Run executes the program's main with the given argv and returns how the
// process ended. Run may be called once per Process.
func (p *Process) Run(argv ...string) (res Result) {
	defer func() {
		res.Stdout = p.env.Stdout.String()
		res.Stderr = p.env.Stderr.String()
		if r := recover(); r != nil {
			mp, ok := r.(mainPanic)
			if !ok {
				panic(r) // a genuine Go bug; do not swallow it
			}
			if mp.fault != nil {
				res.Fault = mp.fault
				return
			}
			res.Status = p.env.Status
		}
	}()
	status := p.exe.Main(p, append([]string{p.name}, argv...))
	if p.env.Exited {
		return Result{Status: p.env.Status}
	}
	return Result{Status: status}
}

// RunCall is a convenience for probe-style execution: start main-less,
// call one symbol, report the result. The fault injector uses it through
// fresh processes.
func (p *Process) RunCall(symbol string, args ...cval.Value) (cval.Value, Result) {
	v, f := p.Call(symbol, args...)
	res := Result{
		Fault:  f,
		Stdout: p.env.Stdout.String(),
		Stderr: p.env.Stderr.String(),
	}
	if p.env.Exited {
		res.Status = p.env.Status
	}
	return v, res
}
