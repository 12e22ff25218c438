package wrappers

import (
	"math/rand"
	"testing"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/simelf"
)

// TestPropertyHardenedLibcNeverCrashes is the end-to-end statement of the
// whole toolkit: with the robustness wrapper (strongest argument checks +
// bounded substitutions) preloaded over libc, *no* sequence of calls with
// arbitrary argument values takes the process down. Invalid calls are
// denied with errno; valid ones execute. abort() is excluded — aborting
// is its contract — and exit() latches, so both are left out of the pool.
func TestPropertyHardenedLibcNeverCrashes(t *testing.T) {
	libcLib := clib.MustRegistry().AsLibrary()
	var protos []*ctypes.Prototype
	for _, n := range libcLib.Symbols() {
		if p := libcLib.Proto(n); p != nil && n != "abort" && n != "exit" {
			protos = append(protos, p)
		}
	}
	wrapper, _, err := Robustness(libcLib, StrongestAPI(protos), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(libcLib); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(wrapper); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddExecutable(&simelf.Executable{Name: "fuzz", Needed: []string{clib.LibcSoname}}); err != nil {
		t.Fatal(err)
	}
	lm, err := dynlink.Load(sys, "fuzz", []string{RobustnessSoname})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20030622))
	env := cval.NewEnv()
	env.Stdin.WriteString("fuzz input line\n")
	valid, _ := env.Img.StaticString("a valid string")
	heapBuf := env.Img.Heap.Malloc(256)
	env.Img.Space.WriteCString(heapBuf, "heap string")
	fn := env.RegisterText("fuzz_cb", func(e *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		return cval.Int(0), nil
	})

	pool := []cval.Value{
		cval.Ptr(0),           // NULL
		cval.Ptr(0xdeadbee0),  // wild pointer
		cval.Ptr(valid),       // valid string
		cval.Ptr(heapBuf),     // heap buffer
		cval.Ptr(fn),          // code pointer
		cval.Ptr(cmem.RoBase), // read-only memory
		cval.Int(-1),          // negative scalar
		cval.Int(0),           //
		cval.Int(7),           // small scalar
		cval.Uint(16),         // small size
		cval.Uint(0xffffffff), // SIZE_MAX
		cval.Uint(0x40000000), // huge size
		cval.Ptr(valid + 1),   // interior / misaligned pointer
		cval.Int(int64('x')),  // character
	}

	// Keep any single pathological-but-legal walk bounded, like a test
	// harness timeout; legitimate calls stay far below this.
	env.Img.Space.SetFuel(512 << 20)

	names := libcLib.Symbols()
	calls := 0
	for i := 0; i < 3000; i++ {
		name := names[rng.Intn(len(names))]
		if name == "abort" || name == "exit" {
			continue
		}
		proto := libcLib.Proto(name)
		entry, ok := lm.Resolve(name)
		if !ok {
			t.Fatalf("resolve %s", name)
		}
		args := make([]cval.Value, len(proto.Params))
		for j := range args {
			args[j] = pool[rng.Intn(len(pool))]
		}
		if _, f := entry(env, args); f != nil {
			t.Fatalf("call %d: %s%v crashed the hardened process: %v", i, name, args, f)
		}
		calls++
		if env.Exited {
			t.Fatalf("unexpected exit latch after %s", name)
		}
	}
	if calls < 2500 {
		t.Fatalf("only %d calls executed", calls)
	}
}
