// Command testonly fails when an exported identifier under internal/ is
// referenced only from _test.go files.
//
// It type-checks the non-test files of every package in the root
// module, and the benchmark harness module in perfbench/, which counts
// as a user because it imports internal packages. It then reports each
// exported package-level identifier, and each exported method, of an
// internal package that no non-test file references. Methods named
// String or Error, and methods that satisfy an interface, are not
// reported: they are called through the interface. Struct fields are
// not checked. The keep list below names what stays without a
// non-test caller, each with its reason.
//
// Run it from the repository root:
//
//	go run ./scripts/testonly
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "healers"

// keep lists the identifiers that stay although only tests reference
// them, as "pkg.Name" or "pkg.Type.Method" with pkg relative to
// internal/. An entry whose identifier gains a caller, or is deleted,
// fails the scan, so the list cannot go stale. Identifiers the
// benchmark harness reaches (Space.AccessCounts, Space.PageCount,
// Toolkit.LoadRobustAPIXML, State.Sync, xmlrep.NewPolicyDoc) need no
// entry: perfbench counts as a user.
var keep = map[string]string{
	// Reference oracles and inverses the tests compare against.
	"collect.Server.AggregateCallsFull": "reference oracle for the streaming fleet aggregate",
	"wrappers.PolicyEngine.ApplyXML":    "FuzzPolicyApply applies raw policy bytes through it",
	"cmem.Chaos.Spec":                   "inverse of ParseChaos, checked by the round trip in chaos_test.go",

	// Fixtures that tests in other packages share.
	"cheader.ParsePrototype":        "parses one-line prototypes for tests in other packages",
	"clib.MustRegistry":             "the libc registry tests in other packages build from",
	"clib.Registry.Lookup":          "libc fixture shared by tests in other packages",
	"clib.Registry.Proto":           "libc fixture shared by tests in other packages",
	"clib.Registry.Len":             "libc fixture shared by tests in other packages",
	"cmem.Image.CString":            "reads strings back in tests of other packages",
	"cmem.Image.LiteralString":      "places read-only strings in tests of other packages",
	"cval.Env.PutFile":              "seeds simulated files in tests of other packages",
	"cval.Env.FileData":             "reads simulated files back in tests of other packages",
	"victim.StackExploitPacket":     "the stack-smash input the attack tests share",
	"gen.Generator.Build":           "one-wrapper fixture for the gen, collect and xmlrep tests and the per-call benchmarks",
	"core.SoakResult.PolicyHitRate": "observes the recovery policy's hit rate after a soak",

	// One-line accessors that observe state the system keeps.
	"cmem.Space.JournalActive":  "observes whether the containment journal is armed",
	"cmem.Space.JournalLen":     "observes the containment journal's length",
	"cmem.Heap.Stats":           "observes the allocator's counters",
	"cval.Env.OpenFdCount":      "observes the descriptor table",
	"simelf.Library.NumSymbols": "observes a library's symbol table",
	"inject.Cache.Path":         "observes the campaign cache's file",
	"inject.Cache.Len":          "observes the campaign cache's size",
	"proc.Process.Linkmap":      "observes a process's link map",
	"webui.Server.Handler":      "serves the web UI in handler tests without a listener",

	// TestLinkmapQuery's evidence for interposition (EXPERIMENTS.md, §2).
	"core.Toolkit.Linkmap":           "TestLinkmapQuery resolves symbols through it",
	"dynlink.Linkmap.DefiningObject": "TestLinkmapQuery asks which object defines a symbol",
	"dynlink.Linkmap.Objects":        "TestLinkmapQuery lists the search order",

	// Time and size seams that let tests run in milliseconds.
	"collect.WithIdleTimeout":   "shortens the idle-connection timeout in tests",
	"collect.WithReadTimeout":   "shortens the frame read timeout in tests",
	"collect.WithSpoolBudget":   "shrinks the spool budget in tests",
	"inject.WithLeaseTimeout":   "shortens the coordinator's shard lease in tests",
	"inject.WithStragglerAfter": "shortens the straggler threshold in tests",
	"inject.WithWorkerID":       "names a worker in coordinator tests",
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	build.Default.CgoEnabled = false
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)

	dirs, err := packageDirs(root)
	if err != nil {
		fatal(err)
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if _, err := l.Import(module + "/" + filepath.ToSlash(rel)); err != nil {
			fatal(err)
		}
	}
	// The benchmark harness imports internal packages through a
	// replace directive, so its import paths are this module's.
	if _, err := l.check("healers/perfbench", filepath.Join(root, "perfbench")); err != nil {
		fatal(err)
	}

	var unused []string
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, obj := range l.unused(pkg) {
			name := keyOf(path, obj)
			if _, ok := keep[name]; ok {
				delete(keep, name)
				continue
			}
			pos := l.fset.Position(obj.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			unused = append(unused, fmt.Sprintf("%s:%d: %s", rel, pos.Line, name))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		fmt.Fprintf(os.Stderr, "testonly: %s has no caller outside _test.go files\n", u)
	}
	var stale []string
	for name := range keep {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Fprintf(os.Stderr, "testonly: keep-list entry %s is not an exported identifier without callers\n", name)
	}
	if len(unused)+len(stale) > 0 {
		fmt.Fprintln(os.Stderr, "testonly: FAILED (delete the identifier, give it a caller, or add it to the keep list with a reason)")
		os.Exit(1)
	}
	fmt.Println("testonly: ok")
}

// loader type-checks the module's packages from their non-test files
// and records every object a non-test file references.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*types.Package
	used map[types.Object]bool
	ifcs []*types.Interface
}

// Import resolves the module's packages itself, so that every use is
// recorded against one object, and the standard library from source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.ImportFrom(path, l.root, 0)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.check(path, filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, module), "/")))
}

func (l *loader) check(path, dir string) (*types.Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, obj := range info.Uses {
		l.used[origin(obj)] = true
	}
	return pkg, nil
}

// unused returns pkg's exported package-level objects, and the
// exported methods of its named types, that no non-test file references
// and no interface accounts for.
func (l *loader) unused(pkg *types.Package) []types.Object {
	var objs []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !l.used[obj] {
			objs = append(objs, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for m := range named.Methods() {
			if m.Exported() && !l.used[m] && m.Name() != "String" && m.Name() != "Error" && !l.implements(named, m.Name()) {
				objs = append(objs, m)
			}
		}
	}
	return objs
}

// implements reports whether T or *T satisfies an interface, from any
// loaded package, that declares a method called name.
func (l *loader) implements(named *types.Named, name string) bool {
	if l.ifcs == nil {
		l.collectInterfaces()
	}
	ptr := types.NewPointer(named)
	for _, ifc := range l.ifcs {
		if hasMethod(ifc, name) && (types.Implements(named, ifc) || types.Implements(ptr, ifc)) {
			return true
		}
	}
	return false
}

// collectInterfaces gathers the non-generic named interfaces of every
// loaded package and of everything those packages import.
func (l *loader) collectInterfaces() {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if ifc, ok := named.Underlying().(*types.Interface); ok && ifc.NumMethods() > 0 {
				l.ifcs = append(l.ifcs, ifc)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
}

func hasMethod(ifc *types.Interface, name string) bool {
	for m := range ifc.Methods() {
		if m.Name() == name {
			return true
		}
	}
	return false
}

// origin maps a use of an instantiated generic object to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func keyOf(path string, obj types.Object) string {
	name := strings.TrimPrefix(path, module+"/internal/") + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name += t.(*types.Named).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// packageDirs lists the root module's package directories, skipping
// testdata, hidden directories and the perfbench module.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "perfbench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "testonly:", err)
	os.Exit(2)
}
