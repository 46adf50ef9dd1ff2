package apicheck

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyKeep lists the exported functions and methods of internal/
// packages that no non-test code reaches but that stay, each for the
// reason given. An entry that gains a non-test caller, or whose function
// is gone, fails TestNoTestOnlyExports until it is taken off the list.
var testOnlyKeep = map[string]string{
	"bh.WalkSet.Eval":     "CPU reference that TestBHPlansMatchWalkEval compares the w- and jw-parallel plans against bit for bit",
	"pp.Tiled":            "cache-tiled CPU baseline named in DESIGN §3",
	"bh.Tree.Validate":    "tree invariant checker the property tests drive",
	"bh.WalkSet.Validate": "walk invariant checker the property tests drive; CI's hostpath job gates it at zero allocations",
	"bh.Builder.Reset":    "the arenaescape rule and its arena_* corpus fixtures are written against it",
	"sim.Run":             "the ctxpropagate rule and its ctx_simrun corpus fixture are written against it",
	"clc.Format":          "the parser's round-trip property test is built on it",
	"apicheck.Surface":    "renders the API surface golden",
}

// TestNoTestOnlyExports fails on any exported function or method of an
// internal/ package that only tests reach, unless testOnlyKeep names it,
// and on any testOnlyKeep entry that is reached or no longer exists.
//
// It type-checks the non-test files of every package of the module plus
// _jobbench, the end-to-end benchmark, which is its own module but calls
// into internal/. A function counts as reached when any loaded file
// references it. A method also counts as reached when its receiver, as a
// value or a pointer, implements an interface with a method of that name:
// the call may go through the interface.
func TestNoTestOnlyExports(t *testing.T) {
	root := repoRoot(t)
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ld.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, filepath.Join(root, "_jobbench"))
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := ld.LoadDir(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	reached := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				reached[fn.Origin()] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				reached[fn.Origin()] = true
			}
		}
	}
	ifaces := interfaces(pkgs)

	unreached := make(map[string]bool)
	prefix := ld.ModulePath + "/internal/"
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, prefix)
		if !ok {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				name := rel + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if named == nil || !named.Obj().Exported() {
						continue
					}
					name = rel + "." + named.Obj().Name() + "." + fd.Name.Name
					if implementsAny(named, fd.Name.Name, ifaces) {
						continue
					}
				}
				if !reached[fn] {
					unreached[name] = true
				}
			}
		}
	}

	var offenders, stale []string
	for name := range unreached {
		if _, ok := testOnlyKeep[name]; !ok {
			offenders = append(offenders, name)
		}
	}
	for name := range testOnlyKeep {
		if !unreached[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(offenders)
	sort.Strings(stale)
	for _, name := range offenders {
		t.Errorf("%s is exported but only tests reach it: delete it, or move it into a _test.go file as an unexported helper", name)
	}
	for _, name := range stale {
		t.Errorf("testOnlyKeep entry %s is reached from non-test code or no longer exists: remove the entry", name)
	}
}

// interfaces collects every interface type the loaded packages declare or
// use, every named interface of the packages they import transitively, and
// error.
func interfaces(pkgs []*lint.Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return // a generic interface has no methods to match until instantiated
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	return out
}

// implementsAny reports whether named, as a value or a pointer, implements
// one of ifaces that has a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type of a method receiver (T or *T).
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
