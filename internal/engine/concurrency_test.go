package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// enginePackages are the algorithm packages behind the method table, relative
// to this package's directory.
var enginePackages = []string{
	"core", "sanchis", "mlfpart", "multilevel", "flow",
	"seed", "partition", "gain", "wcdp", "setcover",
}

// TestEngineGoStatementsOnlyInFan pins the concurrency design: the only
// goroutines the engines start are portfolio members, spawned by
// core.Budget.Fan under a budget token. A go statement anywhere else in an
// engine package's non-test code is a second, unbudgeted fan-out.
func TestEngineGoStatementsOnlyInFan(t *testing.T) {
	const allowed = "core/budget.go"
	fset := token.NewFileSet()
	found := 0
	for _, pkg := range enginePackages {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("package %s has no Go files; update enginePackages", pkg)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			rel := filepath.ToSlash(filepath.Join(pkg, filepath.Base(path)))
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if rel == allowed {
						found++
					} else {
						t.Errorf("%s: go statement outside %s", fset.Position(g.Pos()), allowed)
					}
				}
				return true
			})
		}
	}
	if found == 0 {
		t.Errorf("no go statement in %s: the guard no longer sees Budget.Fan", allowed)
	}
}
