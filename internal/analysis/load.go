package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Run lints every non-test package of the module enclosing dir and returns
// the surviving findings, sorted by (file, line, column, check) with
// filenames relative to the module root. Packages are parsed and
// type-checked in dependency order (imports first), then handed to check,
// the same pipeline the fixture tests drive.
func Run(dir string) ([]Finding, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, root)
	if err != nil {
		return nil, err
	}
	cache := map[string]*types.Package{}
	imp := &moduleImporter{
		fallback: importer.ForCompiler(fset, "gc", nil),
		cache:    cache,
	}
	cfg := &types.Config{Importer: imp}
	units := make([]*pkgUnit, 0, len(pkgs))
	for _, pkg := range pkgs {
		info := newInfo()
		tpkg, err := cfg.Check(pkg.path, fset, pkg.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pkg.path, err)
		}
		cache[pkg.path] = tpkg
		units = append(units, &pkgUnit{path: pkg.path, files: pkg.files, pkg: tpkg, info: info})
	}

	// Every file lies under root, so making names root-relative keeps the
	// sorted order.
	all := check(fset, units)
	for i := range all {
		if rel, err := filepath.Rel(root, all[i].Pos.Filename); err == nil {
			all[i].Pos.Filename = rel
		}
	}
	return all, nil
}

// moduleRoot walks up from dir to the nearest directory holding a go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// moduleImporter serves already-checked module packages from the cache and
// falls back to compiler export data for the standard library (the go
// command finds it in the build cache), which is about a second faster than
// type-checking the library from source and yields the same findings.
type moduleImporter struct {
	fallback types.Importer
	cache    map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	return m.fallback.Import(path)
}

// pkgUnit is one type-checked package, the unit every checker runs on.
type pkgUnit struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// pkgSrc is one parsed, not-yet-type-checked package.
type pkgSrc struct {
	path    string
	files   []*ast.File
	imports []string // module-internal imports only
}

// loadModule parses every non-test package in the module and returns them in
// dependency order (imports before importers), so type-checking can proceed
// with a simple cache.
func loadModule(fset *token.FileSet, root string) ([]*pkgSrc, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byPath := map[string]*pkgSrc{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg := byPath[pkgPath]
		if pkg == nil {
			pkg = &pkgSrc{path: pkgPath}
			byPath[pkgPath] = pkg
		}
		pkg.files = append(pkg.files, file)
		for _, spec := range file.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				pkg.imports = append(pkg.imports, ip)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return topoSortPkgs(byPath)
}

// topoSortPkgs orders packages imports-first; the walk is seeded in sorted
// path order so the result is deterministic.
func topoSortPkgs(byPath map[string]*pkgSrc) ([]*pkgSrc, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var out []*pkgSrc
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case visiting:
			return fmt.Errorf("import cycle through %s", p)
		case done:
			return nil
		}
		state[p] = visiting
		pkg := byPath[p]
		for _, dep := range pkg.imports {
			if _, ok := byPath[dep]; !ok {
				continue // not a package we parsed (e.g. pruned dir)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = done
		out = append(out, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
