// Package doccheck is the docs drift gate: it verifies that the code
// anchors in the hand-written documentation — repo paths in backticks,
// `pkg.Symbol` references, and relative markdown links — actually
// exist in the tree, and that every markdown file and repo pkg.Symbol
// a Go comment names exists too. `make docs-check` (and CI) runs
// exactly this package, so renaming a package, deleting a file or
// moving a doc breaks the build instead of silently rotting the docs.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const root = "../.." // repo root, from test/doccheck

// checkedDocs are the hand-written documents under the gate. The
// generated cmdref pages are covered by cmdref-check instead.
var checkedDocs = []string{
	"README.md",
	"docs/architecture.md",
	"docs/operations.md",
	"test/doc/cases.md",
}

// pathSpan matches a backticked span that claims to be a repo path.
var pathSpan = regexp.MustCompile(`^(pkg|cmd|internal|docs|test|\.github)/[A-Za-z0-9_./*-]+$`)

// symbolSpan matches a backticked `pkg.Exported` reference.
var symbolSpan = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)$`)

var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// mdLink matches a markdown link target (the part in parentheses,
// stripped of any #fragment).
var mdLink = regexp.MustCompile(`\]\(([^)#\s]+)(?:#[^)]*)?\)`)

// problems scans one document's content and reports every broken
// anchor. docDir resolves relative markdown links; symbols is the
// package→exported-identifier index of the repo.
func problems(content, docDir string, symbols map[string]map[string]bool) []string {
	var bad []string
	for _, m := range codeSpan.FindAllStringSubmatch(content, -1) {
		span := strings.TrimSuffix(m[1], "/")
		switch {
		case pathSpan.MatchString(span):
			if strings.Contains(span, "*") {
				if matches, err := filepath.Glob(filepath.Join(root, span)); err != nil || len(matches) == 0 {
					bad = append(bad, "path pattern `"+m[1]+"` matches nothing in the repo")
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(root, span)); err != nil {
				// Dir-qualified symbol (`pkg/service.Manager`): the
				// directory must exist and its package export the name.
				if dir, sym, ok := strings.Cut(span, "."); ok && symbolSpan.MatchString(filepath.Base(dir)+"."+sym) {
					if _, derr := os.Stat(filepath.Join(root, dir)); derr == nil && symbols[filepath.Base(dir)][sym] {
						continue
					}
					bad = append(bad, "symbol `"+span+"` does not resolve (directory or export missing)")
					continue
				}
				bad = append(bad, "path `"+m[1]+"` does not exist in the repo")
			}
		case symbolSpan.MatchString(span):
			sm := symbolSpan.FindStringSubmatch(span)
			exported, known := symbols[sm[1]]
			if !known {
				continue // not one of our packages (stdlib, prose)
			}
			if !exported[sm[2]] {
				bad = append(bad, "symbol `"+span+"` is not exported by package "+sm[1])
			}
		}
	}
	for _, m := range mdLink.FindAllStringSubmatch(content, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		// Targets that resolve outside the repo (GitHub-site-relative
		// badge links like ../../actions/...) cannot be verified here.
		resolved := filepath.Clean(filepath.Join(docDir, target))
		if rel, err := filepath.Rel(root, resolved); err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if _, err := os.Stat(filepath.Join(docDir, target)); err != nil {
			bad = append(bad, "link target "+target+" does not exist")
		}
	}
	return bad
}

// mdRef matches a markdown file name or path inside a Go comment. The
// leading group stops a match from starting mid-token, so URLs
// (https://host/x.md) are not mistaken for repo references.
var mdRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([A-Za-z0-9_][A-Za-z0-9_./-]*\.md)\b`)

// goSymbol matches a bare pkg.Exported mention in a Go comment, with
// an optional trailing * that makes the name a prefix (api.Code*). The
// leading group stops a match from starting mid-identifier or
// mid-selector (x.pkg.Name).
var goSymbol = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(\*?)`)

// commentProblems reports every *.md reference in a Go file's comments
// that exists neither relative to the file's directory nor relative to
// the repo root, and every pkg.Symbol mention of a repo package that
// the package does not export. Code blocks in comments (tab-indented
// lines) are skipped for symbols: they show code, not references.
func commentProblems(src []byte, name, dir string, symbols map[string]map[string]bool) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for _, cg := range f.Comments {
		text := cg.Text()
		for _, m := range mdRef.FindAllStringSubmatch(text, -1) {
			if exists(filepath.Join(dir, m[1])) || exists(filepath.Join(root, m[1])) {
				continue
			}
			bad = append(bad, fset.Position(cg.Pos()).String()+": comment references "+m[1]+", which does not exist")
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "\t") {
				continue
			}
			for _, m := range goSymbol.FindAllStringSubmatch(line, -1) {
				if exported, known := symbols[m[1]]; known && !resolves(exported, m[2], m[3] == "*") {
					bad = append(bad, fset.Position(cg.Pos()).String()+": comment mentions "+m[1]+"."+m[2]+m[3]+", which package "+m[1]+" does not export")
				}
			}
		}
	}
	return bad
}

// resolves reports whether exported holds name, or with prefix set any
// name starting with it.
func resolves(exported map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return exported[name]
	}
	for sym := range exported {
		if strings.HasPrefix(sym, name) {
			return true
		}
	}
	return false
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// walkRepo calls fn for every entry under the repo root, skipping
// hidden directories and testdata.
func walkRepo(t *testing.T, fn func(path string, d fs.DirEntry)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return fs.SkipDir
			}
		}
		fn(path, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// symbolIndex parses every Go package in the repo and maps package
// name -> set of exported top-level identifiers (types, funcs, consts,
// vars). Same-named packages in different directories merge.
func symbolIndex(t *testing.T) map[string]map[string]bool {
	t.Helper()
	index := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	walkRepo(t, func(path string, d fs.DirEntry) {
		if !d.IsDir() {
			return
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return // not a Go dir (or doesn't parse); other gates catch that
		}
		for name, pkg := range pkgs {
			if name == "main" {
				continue
			}
			set := index[name]
			if set == nil {
				set = make(map[string]bool)
				index[name] = set
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil && d.Name.IsExported() {
							set[d.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() {
									set[s.Name.Name] = true
								}
							case *ast.ValueSpec:
								for _, n := range s.Names {
									if n.IsExported() {
										set[n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	})
	if len(index) == 0 {
		t.Fatal("symbol index is empty: doccheck is not finding the repo")
	}
	return index
}

// TestDocAnchorsResolve is the gate: every checked document's code
// anchors must resolve against the current tree.
func TestDocAnchorsResolve(t *testing.T) {
	symbols := symbolIndex(t)
	for _, doc := range checkedDocs {
		doc := doc
		t.Run(doc, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join(root, doc))
			if err != nil {
				t.Fatalf("checked doc missing: %v", err)
			}
			for _, p := range problems(string(blob), filepath.Dir(filepath.Join(root, doc)), symbols) {
				t.Error(p)
			}
		})
	}
}

// TestGoCommentsResolve is the gate for Go sources: every markdown file
// named in a non-test .go file's comments must exist, and every
// pkg.Symbol it mentions for a repo package must be exported there.
func TestGoCommentsResolve(t *testing.T) {
	symbols := symbolIndex(t)
	scanned := 0
	walkRepo(t, func(path string, d fs.DirEntry) {
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for _, p := range commentProblems(src, path, filepath.Dir(path), symbols) {
			t.Error(p)
		}
	})
	if scanned == 0 {
		t.Fatal("no Go files scanned: doccheck is not finding the repo")
	}
}

// TestGateCatchesRot proves the gate actually fires: fabricated docs
// with a dead path, a dead symbol and a dead link must all be flagged,
// and their healthy counterparts must not; likewise a Go comment naming
// a missing markdown file or a symbol its repo package does not export.
func TestGateCatchesRot(t *testing.T) {
	symbols := symbolIndex(t)
	rotten := "see `pkg/service/teleporter.go` and `service.FrobnicateQueue`, " +
		"also [the plan](no/such/doc.md)"
	got := problems(rotten, filepath.Join(root, "docs"), symbols)
	if len(got) != 3 {
		t.Fatalf("rotten doc produced %d problems, want 3:\n%s", len(got), strings.Join(got, "\n"))
	}
	healthy := "see `pkg/service/remote.go` and `service.NewExternal`, " +
		"also [the architecture](architecture.md) and stdlib `http.Client` (unindexed, skipped)"
	if got := problems(healthy, filepath.Join(root, "docs"), symbols); len(got) != 0 {
		t.Fatalf("healthy doc flagged:\n%s", strings.Join(got, "\n"))
	}

	dir := filepath.Join(root, "internal", "core")
	rottenGo := "// Package core is described in DESIGN.md §7 and docs/plan.md.\npackage core\n"
	if got := commentProblems([]byte(rottenGo), "rotten.go", dir, symbols); len(got) != 2 {
		t.Fatalf("rotten Go comment produced %d problems, want 2:\n%s", len(got), strings.Join(got, "\n"))
	}
	healthyGo := "// Package core: see README.md, docs/architecture.md and\n" +
		"// https://example.com/DESIGN.md (a URL, skipped).\npackage core\n\n" +
		"const page = \"DESIGN.md\" // strings are not comments\n"
	if got := commentProblems([]byte(healthyGo), "healthy.go", dir, symbols); len(got) != 0 {
		t.Fatalf("healthy Go comment flagged:\n%s", strings.Join(got, "\n"))
	}

	rottenSym := "// Package core seeds runs the way parmcmc.Runner did and maps\n" +
		"// errors onto api.Nope* codes.\npackage core\n"
	if got := commentProblems([]byte(rottenSym), "rotten.go", dir, symbols); len(got) != 2 {
		t.Fatalf("rotten Go symbol mentions produced %d problems, want 2:\n%s", len(got), strings.Join(got, "\n"))
	}
	healthySym := "// Package core seeds runs with parmcmc.DeriveSeed and maps errors\n" +
		"// onto api.Code* codes; http.Client (stdlib) and x.parmcmc.Gone (a\n" +
		"// selector) are not repo mentions. A code block is skipped:\n//\n" +
		"//\tid := cfg.IDAt(rng.Intn(n))\npackage core\n"
	if got := commentProblems([]byte(healthySym), "healthy.go", dir, symbols); len(got) != 0 {
		t.Fatalf("healthy Go symbol mentions flagged:\n%s", strings.Join(got, "\n"))
	}
}
