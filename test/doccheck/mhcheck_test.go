package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The sampler keeps one Metropolis–Hastings acceptance test,
// mcmc.Accept: the sequential engine, the periodic engine's cell workers
// and the (MC)³ swap all decide through it, so the one math.Log on the
// decision path can be made portable in one place. This gate fails on
// any other `math.Log(<rng>.Positive())` in non-test Go, and on any
// math.Exp in the sampler's packages: on amd64 math.Exp switches to a
// fused multiply-add path on CPUs with AVX and FMA, so a result that
// went through it could depend on the host CPU.

// samplerPkgs are the directories (relative to the repo root) whose
// non-test code must not call math.Exp.
var samplerPkgs = []string{
	"internal/model", "internal/mcmc", "internal/core", "internal/spec",
	"internal/partition", "internal/mc3", "internal/rng", "internal/geom",
	"pkg/parmcmc",
}

// acceptHome is where the one sanctioned Metropolis test lives.
const acceptHome, acceptFunc = "internal/mcmc", "Accept"

// mhProblems scans one Go source file whose directory, relative to the
// repo root, is dir. It reports every Metropolis test outside
// mcmc.Accept and, in a sampler package, every use of math.Exp; sites
// counts the sanctioned Metropolis tests it saw.
func mhProblems(src []byte, name, dir string) (bad []string, sites int) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return []string{err.Error()}, 0
	}
	mathName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "math" {
			mathName = "math"
			if imp.Name != nil {
				mathName = imp.Name.Name
			}
		}
	}
	if mathName == "" {
		return nil, 0
	}
	isMath := func(e ast.Expr, fn string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != fn {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == mathName
	}
	sampler := false
	for _, p := range samplerPkgs {
		sampler = sampler || dir == p || strings.HasPrefix(dir, p+"/")
	}
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sampler && isMath(n, "Exp") {
					bad = append(bad, fset.Position(n.Pos()).String()+": math.Exp in a sampler package")
				}
			case *ast.CallExpr:
				if !isMath(n.Fun, "Log") || len(n.Args) != 1 {
					return true
				}
				u, ok := n.Args[0].(*ast.CallExpr)
				if !ok || len(u.Args) != 0 {
					return true
				}
				if sel, ok := u.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Positive" {
					return true
				}
				if dir == acceptHome && fn == acceptFunc {
					sites++
				} else {
					bad = append(bad, fset.Position(n.Pos()).String()+": Metropolis test outside mcmc.Accept")
				}
			}
			return true
		})
	}
	return bad, sites
}

// TestOneMetropolisTest is the gate over the tree.
func TestOneMetropolisTest(t *testing.T) {
	sites := 0
	walkRepo(t, func(path string, d fs.DirEntry) {
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		bad, n := mhProblems(src, path, filepath.ToSlash(rel))
		sites += n
		for _, p := range bad {
			t.Error(p)
		}
	})
	if sites != 1 {
		t.Fatalf("found %d Metropolis tests in mcmc.Accept, want 1: the gate is not finding it", sites)
	}
}

// TestMetropolisGateCatchesCopies proves the gate fires: a re-inlined
// acceptance test (even through an aliased math import) and a math.Exp
// in a sampler package are flagged, while the same Exp outside the
// sampler and the sanctioned mcmc.Accept are not.
func TestMetropolisGateCatchesCopies(t *testing.T) {
	copied := "package core\n\nimport m \"math\"\n\n" +
		"func (w *cellWorker) accepts(la float64) bool { return la >= 0 || m.Log(w.rng.Positive()) < la }\n\n" +
		"func Accept(x float64) float64 { return m.Exp(x) }\n"
	for _, tc := range []struct {
		dir  string
		want int
	}{
		{"internal/core", 2},
		{"pkg/parmcmc", 2},
		{"examples/nuclei", 1},
		{acceptHome, 2},
	} {
		if bad, _ := mhProblems([]byte(copied), "copied.go", tc.dir); len(bad) != tc.want {
			t.Errorf("%s: %d problems, want %d:\n%s", tc.dir, len(bad), tc.want, strings.Join(bad, "\n"))
		}
	}
	sanctioned := "package mcmc\n\nimport \"math\"\n\n" +
		"func Accept(r *rng.RNG, la float64) bool { return la >= 0 || math.Log(r.Positive()) < la }\n"
	if bad, sites := mhProblems([]byte(sanctioned), "engine.go", acceptHome); len(bad) != 0 || sites != 1 {
		t.Errorf("sanctioned mcmc.Accept: problems %v, sites %d (want none, 1)", bad, sites)
	}
	if bad, _ := mhProblems([]byte(sanctioned), "engine.go", "internal/mc3"); len(bad) != 1 {
		t.Errorf("an Accept outside internal/mcmc passed the gate: %v", bad)
	}
}
