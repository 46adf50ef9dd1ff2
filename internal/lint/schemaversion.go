package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The schemaversion rule makes "bump schema_version when the wire format
// changes" mechanically checkable. Every struct carrying a
// `json:"schema_version"` field is pinned in internal/lint/schemas.json:
// its field-set fingerprint, the version constant that covers it, the
// pinned version value, and (for documents that are read back) the reader
// that decodes them. A reader reads one schema: it must compare the decoded
// version against the version constant and branch on no literal version, so
// a bump regenerates the committed documents instead of growing an upgrade
// chain. Changing the struct without re-pinning — i.e. without bumping the
// constant — trips the fingerprint. `repocheck -update-schemas` re-pins
// after the bump is in place.

// schemaEntry pins one versioned struct.
type schemaEntry struct {
	// Type is "<package path>.<struct name>".
	Type string `json:"type"`
	// VersionConst names the package constant holding the current version.
	VersionConst string `json:"version_const,omitempty"`
	// Version is the pinned value of that constant.
	Version int `json:"version"`
	// Reader names the package function that decodes the document and
	// must accept only the current version; empty for write-only schemas
	// and for live wire input that keeps accepting an older version
	// (serve.JobSpec).
	Reader string `json:"reader,omitempty"`
	// Fingerprint is an fnv64a hash over the struct's field names, types
	// and tags, in declaration order.
	Fingerprint string `json:"fingerprint"`
}

// schemaRegistry is the parsed schemas.json plus a lookup index.
type schemaRegistry struct {
	Structs []schemaEntry `json:"structs"`

	path   string
	byType map[string]*schemaEntry
}

// schemaRegistryPath locates schemas.json under the module root.
func schemaRegistryPath(l *Loader) string {
	return filepath.Join(l.ModuleRoot, "internal", "lint", "schemas.json")
}

// loadSchemaRegistry reads schemas.json. A missing file yields an empty
// registry: every versioned struct then reports "not pinned", which is the
// correct bootstrap pressure toward running -update-schemas.
func loadSchemaRegistry(l *Loader) (*schemaRegistry, error) {
	reg := &schemaRegistry{path: schemaRegistryPath(l), byType: make(map[string]*schemaEntry)}
	data, err := os.ReadFile(reg.path)
	if os.IsNotExist(err) {
		return reg, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, reg); err != nil {
		return nil, fmt.Errorf("%s: %v", reg.path, err)
	}
	for i := range reg.Structs {
		reg.byType[reg.Structs[i].Type] = &reg.Structs[i]
	}
	return reg, nil
}

// fingerprintStruct hashes a struct's field layout. types.Type.String()
// renders full package paths, so the fingerprint is stable across load
// orders but moves whenever a field's name, type or tag does.
func fingerprintStruct(st *types.Struct) string {
	h := fnv.New64a()
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fmt.Fprintf(h, "%s|%s|%s\n", f.Name(), f.Type().String(), st.Tag(i))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// versionedStructs finds the named struct types in a package that carry a
// `json:"schema_version"` field, sorted by name.
func versionedStructs(pkg *types.Package) []*types.TypeName {
	var out []*types.TypeName
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok && versionField(st) != "" {
			out = append(out, tn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// versionField names the struct's `json:"schema_version"` field, or "".
func versionField(st *types.Struct) string {
	for i := 0; i < st.NumFields(); i++ {
		if parseJSONTag(st.Tag(i)) == "schema_version" {
			return st.Field(i).Name()
		}
	}
	return ""
}

// parseJSONTag extracts the json name from a struct tag.
func parseJSONTag(tag string) string {
	v, ok := lookupTag(tag, "json")
	if !ok {
		return ""
	}
	if i := strings.Index(v, ","); i >= 0 {
		v = v[:i]
	}
	return v
}

// lookupTag is reflect.StructTag.Lookup without importing reflect into the
// analyzer (struct tags here are source text, not runtime values).
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		i = 1
		for i < len(tag) && tag[i] != '"' {
			if tag[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(tag) {
			break
		}
		qvalue := tag[:i+1]
		tag = tag[i+1:]
		if name == key {
			v, err := strconv.Unquote(qvalue)
			if err != nil {
				return "", false
			}
			return v, true
		}
	}
	return "", false
}

// runSchemaVersion verifies each versioned struct in the package against
// the registry: pinned, fingerprint unchanged, version constant at the
// pinned value, and the reader (when one is named) reading only that
// version.
func runSchemaVersion(c *Context) []Diagnostic {
	var out []Diagnostic
	scope := c.Pkg.Types.Scope()
	seen := make(map[string]bool)
	for _, tn := range versionedStructs(c.Pkg.Types) {
		key := c.Pkg.Types.Path() + "." + tn.Name()
		seen[key] = true
		entry := c.schemas.byType[key]
		if entry == nil {
			out = append(out, c.diag(tn.Pos(),
				"versioned struct %s is not pinned in internal/lint/schemas.json; run repocheck -update-schemas", tn.Name()))
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		if fp := fingerprintStruct(st); fp != entry.Fingerprint {
			out = append(out, c.diag(tn.Pos(),
				"%s changed fields since schemas.json pinned v%d: bump %s, regenerate the committed documents, then run repocheck -update-schemas",
				tn.Name(), entry.Version, constOrDefault(entry.VersionConst)))
		}
		if entry.VersionConst != "" {
			cobj, _ := scope.Lookup(entry.VersionConst).(*types.Const)
			if cobj == nil {
				out = append(out, c.diag(tn.Pos(),
					"schemas.json names version const %s for %s but the package does not declare it", entry.VersionConst, tn.Name()))
			} else if v, ok := constant.Int64Val(cobj.Val()); !ok || int(v) != entry.Version {
				out = append(out, c.diag(cobj.Pos(),
					"%s = %s but schemas.json pins %s at v%d; after a deliberate bump run repocheck -update-schemas",
					entry.VersionConst, cobj.Val().ExactString(), tn.Name(), entry.Version))
			}
		}
		if entry.Reader != "" {
			out = append(out, c.checkSchemaReader(tn, entry)...)
		}
	}
	// Stale entries: pinned structs the package no longer declares.
	prefix := c.Pkg.Types.Path() + "."
	for key, entry := range c.schemas.byType {
		if !strings.HasPrefix(key, prefix) || seen[key] {
			continue
		}
		name := strings.TrimPrefix(key, prefix)
		if strings.Contains(name, ".") || strings.Contains(name, "/") {
			continue // a deeper package's entry sharing this path prefix
		}
		if scope.Lookup(name) == nil {
			out = append(out, c.diagAtPackage(
				"schemas.json pins %s but the struct no longer exists; remove the entry (or run repocheck -update-schemas)", key))
		} else {
			out = append(out, c.diag(scope.Lookup(name).Pos(),
				"schemas.json pins %s as versioned but it no longer carries a schema_version field", entry.Type))
		}
	}
	return out
}

// checkSchemaReader verifies that the named reader exists, compares against
// the version constant (ReadBenchReport's `r.SchemaVersion !=
// BenchSchemaVersion`), and branches on no literal version: comparing the
// schema_version field with an integer literal is an upgrade branch for a
// layout the code no longer writes.
func (c *Context) checkSchemaReader(tn *types.TypeName, entry *schemaEntry) []Diagnostic {
	var decl *ast.FuncDecl
	for _, f := range c.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == entry.Reader {
				decl = fd
			}
		}
	}
	if decl == nil || decl.Body == nil {
		return []Diagnostic{c.diag(tn.Pos(),
			"schemas.json names reader %s for %s but the package does not define it", entry.Reader, tn.Name())}
	}
	field := versionField(tn.Type().Underlying().(*types.Struct))
	vconst := c.Pkg.Types.Scope().Lookup(entry.VersionConst)
	isVersion := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == field
	}
	isLiteral := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Kind == token.INT
	}
	isConst := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && vconst != nil && c.Pkg.Info.Uses[id] == vconst
	}
	var out []Diagnostic
	compared := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			compared = compared || isConst(b.X) || isConst(b.Y)
			if isVersion(b.X) && isLiteral(b.Y) || isLiteral(b.X) && isVersion(b.Y) {
				out = append(out, c.diag(b.Pos(),
					"reader %s branches on a literal %s version; read only %s and regenerate older documents",
					entry.Reader, tn.Name(), constOrDefault(entry.VersionConst)))
			}
		}
		return true
	})
	if !compared {
		out = append(out, c.diag(decl.Pos(),
			"reader %s never compares against %s; it must reject every %s version but the current one",
			entry.Reader, constOrDefault(entry.VersionConst), tn.Name()))
	}
	return out
}

// diagAtPackage anchors a diagnostic at the package's first file when no
// better position exists.
func (c *Context) diagAtPackage(format string, args ...any) Diagnostic {
	var pos token.Pos
	if len(c.Pkg.Files) > 0 {
		pos = c.Pkg.Files[0].Package
	}
	return c.diag(pos, format, args...)
}

func constOrDefault(name string) string {
	if name == "" {
		return "its version const"
	}
	return name
}

// UpdateSchemas re-pins the registry for every loaded package: entries for
// structs found in pkgs are recomputed (preserving hand-curated
// version_const/reader fields), entries for packages outside this load —
// including the deliberately-stale corpus fixtures — are kept verbatim.
// It returns the updated registry bytes and writes them to schemas.json.
func UpdateSchemas(l *Loader, pkgs []*Package) ([]byte, error) {
	reg, err := loadSchemaRegistry(l)
	if err != nil {
		return nil, err
	}
	loaded := make(map[string]*types.Package)
	for _, pkg := range pkgs {
		loaded[pkg.Types.Path()] = pkg.Types
	}
	// Snapshot the prior entries by value before compacting: byType holds
	// pointers into reg.Structs' backing array, which the compaction below
	// would otherwise scramble out from under the curated-field lookups.
	prior := make(map[string]schemaEntry, len(reg.Structs))
	for _, e := range reg.Structs {
		prior[e.Type] = e
	}
	kept := reg.Structs[:0]
	for _, e := range reg.Structs {
		pkgPath := e.Type
		if i := strings.LastIndex(pkgPath, "."); i >= 0 {
			pkgPath = pkgPath[:i]
		}
		if loaded[pkgPath] == nil {
			kept = append(kept, e)
		}
	}
	reg.Structs = kept
	for path, tpkg := range loaded {
		for _, tn := range versionedStructs(tpkg) {
			st := tn.Type().Underlying().(*types.Struct)
			entry := schemaEntry{
				Type:        path + "." + tn.Name(),
				Fingerprint: fingerprintStruct(st),
				Version:     1,
			}
			if old, ok := prior[entry.Type]; ok {
				entry.VersionConst = old.VersionConst
				entry.Reader = old.Reader
				entry.Version = old.Version
			} else {
				entry.VersionConst = guessVersionConst(tpkg, tn.Name())
			}
			if entry.VersionConst != "" {
				if cobj, ok := tpkg.Scope().Lookup(entry.VersionConst).(*types.Const); ok {
					if v, ok := constant.Int64Val(cobj.Val()); ok {
						entry.Version = int(v)
					}
				}
			}
			reg.Structs = append(reg.Structs, entry)
		}
	}
	sort.Slice(reg.Structs, func(i, j int) bool { return reg.Structs[i].Type < reg.Structs[j].Type })
	out := struct {
		Structs []schemaEntry `json:"structs"`
	}{reg.Structs}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(reg.path, data, 0o644); err != nil {
		return nil, err
	}
	return data, nil
}

// guessVersionConst finds the SchemaVersion constant covering a struct:
// exact prefix match first (BenchReport → BenchReportSchemaVersion or
// BenchSchemaVersion), else the package's sole *SchemaVersion constant.
func guessVersionConst(tpkg *types.Package, structName string) string {
	scope := tpkg.Scope()
	var all []string
	for _, name := range scope.Names() {
		if _, ok := scope.Lookup(name).(*types.Const); ok && strings.HasSuffix(name, "SchemaVersion") {
			all = append(all, name)
		}
	}
	base := strings.TrimSuffix(structName, "Report")
	for _, name := range all {
		stem := strings.TrimSuffix(name, "SchemaVersion")
		if stem != "" && (strings.HasPrefix(structName, stem) || strings.HasPrefix(base, stem)) {
			return name
		}
	}
	if len(all) == 1 {
		return all[0]
	}
	return ""
}
