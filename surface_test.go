package slate_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the import path of this repository's root package.
const module = "slate"

// publicAPI are the packages a program outside this module is meant to
// import; their exports need no caller inside the tree.
var publicAPI = map[string]bool{"framework": true, "gpu": true, "workloads": true}

// deadExportAllowlist names what else TestNoDeadExports skips, a package by
// its directory or one name as "dir.Name", each with its reason.
var deadExportAllowlist = map[string]string{
	"internal/leakcheck":            "test-support package: only _test.go files import it",
	"internal/ipc.CodeBackpressure": "benchmark/benchmark_test.go names it, and benchmark/ changes only with the benchmark",
}

// goPackage is one directory's parsed Go files.
type goPackage struct {
	dir   string // slash-separated, relative to the module root ("" for the root)
	name  string // package clause of the non-test files
	files []*ast.File
	tests []*ast.File
}

// loadTree parses every Go file of the module, skipping testdata and hidden
// directories.
func loadTree(t *testing.T) (*token.FileSet, map[string]*goPackage) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*goPackage{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = ""
		}
		p := pkgs[dir]
		if p == nil {
			p = &goPackage{dir: dir}
			pkgs[dir] = p
		}
		if strings.HasSuffix(path, "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.name = f.Name.Name
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// importPath is the import path of the package in dir.
func importPath(dir string) string {
	if dir == "" {
		return module
	}
	return module + "/" + dir
}

// qualifiedUses returns every pkg.Name that files name through an import of
// this module, as "importpath.Name".
func qualifiedUses(files []*ast.File) map[string]bool {
	uses := map[string]bool{}
	for _, f := range files {
		local := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != module && !strings.HasPrefix(path, module+"/") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					uses[local[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return uses
}

// export is one exported package-level name and where it is declared.
type export struct {
	name string
	pos  token.Pos
}

// exportsOf lists the exported package-level funcs, types, consts and vars
// of files, and the names of the types an exported signature, an exported
// struct field or an exported type's definition mentions.
func exportsOf(files []*ast.File) (exps []export, reached map[string]bool) {
	reached = map[string]bool{}
	var mark func(n ast.Node)
	mark = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.FuncLit, *ast.BlockStmt:
				return false
			case *ast.Ident:
				reached[n.Name] = true
			case *ast.StructType:
				// An unexported struct field does not carry its type out.
				for _, f := range n.Fields.List {
					if len(f.Names) == 0 || f.Names[0].IsExported() {
						mark(f.Type)
					}
				}
				return false
			}
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !ast.IsExported(recvName(d.Recv))) {
					continue
				}
				if d.Recv == nil {
					exps = append(exps, export{d.Name.Name, d.Name.Pos()})
				}
				mark(d.Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exps = append(exps, export{s.Name.Name, s.Name.Pos()})
							mark(s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exps = append(exps, export{n.Name, n.Pos()})
							}
						}
					}
				}
			}
		}
	}
	return exps, reached
}

// recvName is the name of a method's receiver type.
func recvName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name
}

// TestNoDeadExports fails on an exported package-level name that no other
// package's non-test code names as pkg.Name. An export only its own package
// uses should be unexported; one nothing uses should be deleted. The public
// API packages and the allowlist are exempt, and a type stays exported while
// an exported signature or exported struct field of its own package names
// it, since a caller reaches it through that. Methods and fields are not
// checked: the public API's aliases reach them.
func TestNoDeadExports(t *testing.T) {
	fset, pkgs := loadTree(t)
	used := map[string]bool{}
	for _, p := range pkgs {
		for k := range qualifiedUses(p.files) {
			used[k] = true
		}
	}
	var dead []string
	for _, p := range pkgs {
		if p.name == "main" || len(p.files) == 0 || publicAPI[p.dir] || deadExportAllowlist[p.dir] != "" {
			continue
		}
		exps, reached := exportsOf(p.files)
		for _, e := range exps {
			if used[importPath(p.dir)+"."+e.name] || reached[e.name] || deadExportAllowlist[p.dir+"."+e.name] != "" {
				continue
			}
			pos := fset.Position(e.pos)
			dead = append(dead, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+p.name+"."+e.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no other package's non-test code names it: delete it or unexport it", d)
	}
}

// docFiles are the documents whose backticked Go names TestDocReferencesResolve
// holds to the code.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// codeSpan is one backticked span of a Markdown document.
var codeSpan = regexp.MustCompile("`[^`\n]+`")

// qualifiedName is a pkg.Name chain inside a span: a package name followed by
// one or more selectors, not itself part of a path or a longer name.
var qualifiedName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)((?:\.[A-Za-z][A-Za-z0-9]*)+)\b`)

// declared returns every name declared in files: package-level funcs, types,
// consts and vars, methods, struct fields and interface methods.
func declared(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.BlockStmt:
				return false // locals are not part of a package's surface
			}
			return true
		})
	}
	return names
}

// TestDocReferencesResolve fails on a backticked pkg.Name in the design
// documents that no longer names anything in the tree, so the documents
// cannot outlive the code they describe. Each selector after the package
// name must be declared in that package (a top-level name, a method or a
// field). A chain that starts lower-case and resolves to no declaration may
// instead be a string the code spells out whole: a fault site such as
// journal.append.pre, a state file such as journal.slate, a metric name.
func TestDocReferencesResolve(t *testing.T) {
	_, pkgs := loadTree(t)
	byName := map[string]map[string]bool{}
	strs := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range append(p.files, p.tests...) {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						strs[v] = true
					}
				}
				return true
			})
		}
		if p.name == "" || p.name == "main" {
			continue
		}
		if byName[p.name] == nil {
			byName[p.name] = map[string]bool{}
		}
		for n := range declared(p.files) {
			byName[p.name][n] = true
		}
	}
	checked := 0
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range qualifiedName.FindAllStringSubmatch(span, -1) {
					decls := byName[m[1]]
					if decls == nil {
						continue // not one of this module's packages
					}
					checked++
					ok := true
					for _, sel := range strings.Split(m[2][1:], ".") {
						ok = ok && decls[sel]
					}
					if !ok && !ast.IsExported(strings.Split(m[2][1:], ".")[0]) && strs[m[1]+m[2]] {
						ok = true
					}
					if !ok {
						t.Errorf("%s:%d: `%s%s` names nothing declared in package %s", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no backticked pkg.Name found in the documents")
	}
}
