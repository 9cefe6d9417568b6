package obsv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInstrumentTable checks every instrument registration in the module
// against the table in names.go: a Counter/Gauge/GaugeFunc/Histogram call
// outside tests must name a table constant, no two call sites may register
// the same name, and every table entry must be registered somewhere.
func TestInstrumentTable(t *testing.T) {
	table := instrumentTable(t)
	if len(table) == 0 {
		t.Fatal("instrument table is empty")
	}
	seen := map[string]string{} // name → first registering call site
	fset := token.NewFileSet()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "GaugeFunc", "Histogram":
			default:
				return true
			}
			pos := fset.Position(call.Pos()).String()
			name, ok := instrumentName(call.Args[0], table)
			if !ok {
				t.Errorf("%s: %s registers a name that is not a constant from the obsv instrument table", pos, sel.Sel.Name)
				return true
			}
			if first, dup := seen[name]; dup {
				t.Errorf("%s: %q is already registered at %s", pos, name, first)
				return true
			}
			seen[name] = pos
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, name := range table {
		if _, ok := seen[name]; !ok {
			t.Errorf("table entry %s (%q) has no registering call site", c, name)
		}
	}
}

// instrumentTable parses names.go into constant name → metric name.
func instrumentTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]string{}
	values := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("names.go: %s is not a string literal", id.Name)
				}
				v, _ := strconv.Unquote(lit.Value)
				if values[v] {
					t.Fatalf("names.go: %q is declared twice", v)
				}
				values[v] = true
				table[id.Name] = v
			}
		}
	}
	return table
}

// instrumentName resolves a registration's name argument, which must be a
// table constant: qualified obsv.X, or bare X inside this package.
func instrumentName(arg ast.Expr, table map[string]string) (string, bool) {
	switch e := arg.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && x.Name == "obsv" {
			v, ok := table[e.Sel.Name]
			return v, ok
		}
	case *ast.Ident:
		v, ok := table[e.Name]
		return v, ok
	}
	return "", false
}
