package lint

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

// Package is one loaded, type-checked package handed to the rules.
type Package struct {
	// Path is the import path the rules scope on. For corpus fixtures it
	// is the pseudo-path the fixture poses as (so path-scoped rules fire),
	// not the testdata directory.
	Path string
	// Dir is the directory the package was parsed from.
	Dir string
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Src maps absolute filename to raw source, for the pragma scan.
	Src map[string][]byte
	// Types and Info carry the go/types result.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module. Imports
// of module-internal packages are resolved by recursive source loading;
// stdlib imports go through the toolchain's export data (with a
// source-level fallback), so the loader needs nothing beyond the stdlib —
// the same constraint the rest of the repository lives under.
type Loader struct {
	// Fset positions every parsed file.
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod; ModulePath its module.
	ModuleRoot string
	ModulePath string

	gcImp  types.Importer
	srcImp types.Importer

	// pkgs caches type-checked module packages by import path.
	pkgs map[string]*Package

	// deprecated maps an object key ("pkgpath.Func" or
	// "pkgpath.Type.Method") to the first line of its Deprecated: note,
	// collected from doc comments while loading.
	deprecated map[string]string
}

// NewLoader locates the module enclosing dir and returns a loader rooted
// there.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		gcImp:      importer.ForCompiler(fset, "gc", nil),
		pkgs:       make(map[string]*Package),
		deprecated: make(map[string]string),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// relPath renders filename relative to the module root (stable across
// machines); paths outside the module stay absolute.
func (l *Loader) relPath(filename string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// Import implements types.Importer: module paths load from source,
// everything else through the toolchain importer (export data first, source
// as fallback — export data can be cold on a fresh checkout).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.gcImp.Import(path); err == nil {
		return pkg, nil
	}
	if l.srcImp == nil {
		l.srcImp = importer.ForCompiler(l.Fset, "source", nil)
	}
	return l.srcImp.Import(path)
}

// loadModulePkg loads (and caches) one module-internal package by import
// path.
func (l *Loader) loadModulePkg(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle guard
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks the package in dir. asPath sets the
// Package.Path the rules scope on; pass "" to derive it from the module
// layout. Module-layout packages are cached; fixtures (asPath overrides)
// are not.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	derived := l.pathForDir(abs)
	if asPath == "" || asPath == derived {
		return l.loadModulePkg(derived)
	}
	pkg, err := l.loadDir(abs, derived)
	if err != nil {
		return nil, err
	}
	pkg.Path = asPath
	return pkg, nil
}

// pathForDir maps a module directory to its import path.
func (l *Loader) pathForDir(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir does the real work: parse every non-test .go file the build
// context selects and type-check the lot against the loader's importer.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Honour //go:build lines and _GOOS/_GOARCH suffixes as the go
		// command does, so per-architecture files of one function do not
		// collide.
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if match {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable non-test Go files in %s", dir)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Src:  make(map[string][]byte, len(names)),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	for _, n := range names {
		fn := filepath.Join(dir, n)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(l.Fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Src[fn] = src
		pkg.Files = append(pkg.Files, file)
	}
	l.collectDeprecated(path, pkg.Files)

	var typeErrs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	return pkg, nil
}

// collectDeprecated records every function/method in files whose doc
// comment carries a "Deprecated:" paragraph, keyed for lookup from call
// sites.
func (l *Loader) collectDeprecated(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				note := deprecationNote(fd.Doc.Text())
				if note == "" {
					continue
				}
				key := pkgPath + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
						key = pkgPath + "." + tn + "." + fd.Name.Name
					}
				}
				l.deprecated[key] = note
			}
		}
	}
}

// deprecationNote extracts the first line of a doc comment's Deprecated:
// paragraph ("" when the comment has none).
func deprecationNote(doc string) string {
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Deprecated:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "Deprecated:"))
		}
	}
	return ""
}

// recvTypeName names a receiver type expression ("T" for T and *T).
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	}
	return ""
}

// Deprecation returns the Deprecated: note attached to fn's declaration
// ("" when fn is not deprecated or was never loaded).
func (l *Loader) Deprecation(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if _, name := namedOf(recv.Type()); name != "" {
			key = fn.Pkg().Path() + "." + name + "." + fn.Name()
		}
	}
	return l.deprecated[key]
}

// ExpandPatterns resolves CLI package patterns against the module root:
// "./..." (or "...") walks every package directory; anything else names a
// single directory. testdata, vendor and dot-directories are never walked.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					name := d.Name()
					if p != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
					add(filepath.Dir(p))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			abs, err := filepath.Abs(strings.TrimSuffix(pat, "/"))
			if err != nil {
				return nil, err
			}
			add(abs)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// namedOf unwraps pointers and aliases down to a named type, returning its
// package path and name ("", "" for unnamed types).
func namedOf(t types.Type) (pkgPath, name string) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path(), obj.Name()
			}
			return "", obj.Name()
		default:
			return "", ""
		}
	}
}
