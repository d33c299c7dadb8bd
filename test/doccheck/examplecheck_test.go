package doccheck

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The examples run every strategy through pkg/parmcmc, the same way
// the product does: an example that built a sampler from the internal
// strategy packages would be a second setup path beside parmcmc's
// newSampler, free to drift from it. This gate fails on any examples/*
// Go file that imports one of those packages.

// strategyPkgs are the internal packages that assemble a strategy's
// sampler; only pkg/parmcmc may import them on an example's behalf.
var strategyPkgs = []string{
	"repro/internal/core", "repro/internal/mc3",
	"repro/internal/spec", "repro/internal/partition",
}

// exampleImportProblems reports every import of a strategy package in
// one Go source file.
func exampleImportProblems(src []byte, name string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, p := range strategyPkgs {
			if path == p || strings.HasPrefix(path, p+"/") {
				bad = append(bad, fset.Position(imp.Pos()).String()+": example imports "+path+"; run the strategy through parmcmc.Detect")
			}
		}
	}
	return bad
}

// TestExamplesUseDetect is the gate over examples/.
func TestExamplesUseDetect(t *testing.T) {
	files := 0
	err := filepath.WalkDir(filepath.Join(root, "examples"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, p := range exampleImportProblems(src, path) {
			t.Error(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no example sources found: the gate is not looking at examples/")
	}
}

// TestExampleGateCatchesInternalStrategies proves the gate fires on
// each strategy package (also under an import alias and inside a
// grouped import), and passes parmcmc and the shared helper packages.
func TestExampleGateCatchesInternalStrategies(t *testing.T) {
	for _, p := range strategyPkgs {
		src := "package main\n\nimport (\n\t\"fmt\"\n\n\tx " + strconv.Quote(p) + "\n)\n"
		if bad := exampleImportProblems([]byte(src), "main.go"); len(bad) != 1 {
			t.Errorf("import of %s: %d problems, want 1: %v", p, len(bad), bad)
		}
	}
	ok := "package main\n\nimport (\n\t\"repro/internal/geom\"\n\t\"repro/internal/imaging\"\n" +
		"\t\"repro/internal/mcmc\"\n\t\"repro/internal/coreutil\"\n\t\"repro/pkg/parmcmc\"\n)\n"
	if bad := exampleImportProblems([]byte(ok), "main.go"); len(bad) != 0 {
		t.Errorf("allowed imports flagged: %v", bad)
	}
}
