package e2e

import (
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// e2eCase is one cataloged matrix entry. IDs are stable and never
// reused; test/doc/cases.md is the human-readable catalog and
// TestCatalogMatchesDoc keeps the two in lockstep.
type e2eCase struct {
	ID       string
	Title    string
	Priority int  // 1 = must never break, 2 = important
	Smoke    bool // runs on every PR; the rest only in the full matrix
	Run      func(t *testing.T)
}

// The registry is assembled from the per-area case files:
// cases_load_test.go, cases_chaos_test.go, cases_checkpoint_test.go,
// cases_input_test.go, cases_stream_test.go, cases_cluster_test.go,
// cases_cli_test.go.
func allCases() []e2eCase {
	var cases []e2eCase
	cases = append(cases, loadCases...)
	cases = append(cases, chaosCases...)
	cases = append(cases, checkpointCases...)
	cases = append(cases, inputCases...)
	cases = append(cases, streamCases...)
	cases = append(cases, clusterCases...)
	cases = append(cases, cliCases...)
	return cases
}

// TestCases drives the matrix. Subtests are named by case ID, so one
// case runs with: go test ./test/e2e -run 'TestCases/C00103' -v
func TestCases(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	full := fullMatrix()
	for _, c := range allCases() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			t.Logf("%s [p%d smoke=%v] %s", c.ID, c.Priority, c.Smoke, c.Title)
			if !full && !c.Smoke {
				t.Skip("full-matrix case; set E2E_MATRIX=full")
			}
			c.Run(t)
		})
	}
}

// TestCatalogMatchesDoc pins the registry to the committed catalog:
// every registered case must appear in test/doc/cases.md with the same
// title, priority and smoke tag, and vice versa. It needs no binaries,
// so the doc can never go stale even in -short runs.
func TestCatalogMatchesDoc(t *testing.T) {
	blob, err := os.ReadFile("../doc/cases.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^\|\s*(C\d{5})\s*\|([^|]*)\|\s*p(\d)\s*\|\s*(yes|no)\s*\|`)
	documented := map[string]e2eCase{}
	for _, line := range strings.Split(string(blob), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		prio, _ := strconv.Atoi(m[3])
		if _, dup := documented[m[1]]; dup {
			t.Errorf("case %s documented twice", m[1])
		}
		documented[m[1]] = e2eCase{
			ID: m[1], Title: strings.TrimSpace(m[2]), Priority: prio, Smoke: m[4] == "yes",
		}
	}
	if len(documented) == 0 {
		t.Fatal("no case rows parsed from test/doc/cases.md")
	}

	registered := map[string]e2eCase{}
	for _, c := range allCases() {
		if _, dup := registered[c.ID]; dup {
			t.Errorf("case ID %s registered twice", c.ID)
		}
		registered[c.ID] = c
	}

	var ids []string
	for id := range registered {
		ids = append(ids, id)
	}
	for id := range documented {
		if _, ok := registered[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		reg, inReg := registered[id]
		doc, inDoc := documented[id]
		switch {
		case !inReg:
			t.Errorf("%s is in the catalog but not registered in code", id)
		case !inDoc:
			t.Errorf("%s is registered in code but missing from test/doc/cases.md", id)
		case reg.Title != doc.Title || reg.Priority != doc.Priority || reg.Smoke != doc.Smoke:
			t.Errorf("%s drifted:\n  code: %q p%d smoke=%v\n  doc:  %q p%d smoke=%v",
				id, reg.Title, reg.Priority, reg.Smoke, doc.Title, doc.Priority, doc.Smoke)
		}
	}

	if len(registered) < 12 {
		t.Errorf("matrix has %d cases; the catalog floor is 12", len(registered))
	}
	smoke := 0
	for _, c := range registered {
		if c.Smoke {
			smoke++
		}
	}
	if smoke == 0 {
		t.Error("no smoke-tagged cases: PRs would run nothing")
	}
}
