package analysis

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

// Package is one loaded, type-checked package plus everything the
// analyzers read: parsed files, type info, syntax-only test files (for
// failsafe's coverage check), and the parsed freehw directives.
type Package struct {
	Dir  string // absolute directory
	Path string // import path used for type checking
	Fset *token.FileSet

	Files     []*ast.File // non-test files, type-checked
	TestFiles []*ast.File // *_test.go files, parsed but not type-checked

	Types *types.Package
	Info  *types.Info

	// funcDecls maps each package-level function object to its
	// declaration, so analyzers can look across functions (lockheld's
	// guard resolution, failsafe's caller adjacency).
	funcDecls map[*types.Func]*ast.FuncDecl

	directives directives
}

// FuncDeclOf returns the declaration of a function object defined in this
// package, or nil.
func (p *Package) FuncDeclOf(fn *types.Func) *ast.FuncDecl { return p.funcDecls[fn] }

// Loader parses and type-checks packages with a shared FileSet and a
// shared source-mode importer, so dependencies (including the standard
// library) are type-checked once per process, not once per package.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader backed by go/importer's source mode. Cgo is
// disabled in the build context first: the source importer would otherwise
// try to preprocess cgo-using std packages (net, via net/http), and every
// package this module ships is pure Go — analysis must not depend on a C
// toolchain being present.
func NewLoader() *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadDir parses and type-checks the single package in dir under the given
// import path. Test files are parsed (with comments) but excluded from
// type checking; external _test packages therefore need no resolution.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: abs, Path: importPath, Fset: l.fset}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		// Files the build would not compile here (//go:build, _GOARCH
		// suffixes) stay out: a function with one body per architecture is
		// otherwise a redeclaration to the type checker.
		if ok, err := build.Default.MatchFile(abs, name); err == nil && !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", importPath, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
			pkg.directives.parseDirectives(l.fset, f)
		}
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files in %s", importPath, dir)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	pkg.Types = tpkg
	pkg.funcDecls = map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					pkg.funcDecls[fn] = fd
				}
			}
		}
	}
	return pkg, nil
}

// Load expands patterns into package directories and loads each. A
// pattern is either a directory path or a "dir/..." wildcard rooted at a
// directory; "./..." therefore covers a whole module. Walks skip testdata,
// vendor, hidden, and underscore-prefixed directories — the same dirs the
// go tool skips.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		importPath, err := importPathOf(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ExpandPatterns resolves "..." wildcards into the sorted list of package
// directories (directories containing at least one non-test .go file).
func ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, wild := strings.CutSuffix(pat, "...")
		root = filepath.Clean(root)
		if !wild {
			add(filepath.Clean(pat))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPathOf derives a directory's import path from the enclosing
// module's go.mod (module line + relative path). Directories outside any
// module fall back to their base name.
func importPathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for root := abs; ; {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			mod := modulePath(string(data))
			if mod == "" {
				return "", fmt.Errorf("%s/go.mod: no module line", root)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return "", err
			}
			if rel == "." {
				return mod, nil
			}
			return mod + "/" + filepath.ToSlash(rel), nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return filepath.Base(abs), nil
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
