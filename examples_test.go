package repro

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesRun builds every examples/* program and runs it to
// completion: each must exit 0. The examples write their overlay files
// into a temp dir. Each example with a headline claim is also held to
// it: beads detects every bead on all three of its rows (sequential,
// intelligent, blind); posterior puts mass on at least two artifact
// counts and leaves the faint artifact's coverage uncertain; tempering
// prints both the plain-chain and the (MC)³ row; nuclei prints its F1.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, out)
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			work := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, name), work)
			cmd.Dir = work
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s%s", name, err, out, stderr.Bytes())
			}
			switch name {
			case "beads":
				checkBeadsF1(t, string(out))
			case "posterior":
				checkPosterior(t, string(out))
			case "tempering":
				for _, row := range []string{"plain chain:", "(MC)^3 cold:"} {
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row) + ` +logpost .* F1 [0-9.]+$`).MatchString(string(out)) {
						t.Errorf("tempering printed no %q result row:\n%s", row, out)
					}
				}
			case "nuclei":
				if !regexp.MustCompile(`(?m)^found \d+ nuclei: precision [0-9.]+, recall [0-9.]+, F1 [0-9.]+$`).MatchString(string(out)) {
					t.Errorf("nuclei printed no F1 line:\n%s", out)
				}
			}
		})
	}
}

// checkBeadsF1 asserts that every method row of the beads table reports
// F1 1.
func checkBeadsF1(t *testing.T, out string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	header := strings.Fields(lines[0])
	f1 := -1
	for i, h := range header {
		if h == "F1" {
			f1 = i
		}
	}
	if f1 < 0 {
		t.Fatalf("beads table has no F1 column:\n%s", out)
	}
	rows := 0
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			break
		}
		// "blind 2x2" spans two fields.
		if f[0] == "blind" {
			f = append([]string{f[0] + " " + f[1]}, f[2:]...)
		}
		if len(f) != len(header) {
			t.Fatalf("beads row %q does not match header %q", line, lines[0])
		}
		if f[f1] != "1" {
			t.Errorf("beads %s: F1 %s, want 1", f[0], f[f1])
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("beads printed %d method rows, want 3:\n%s", rows, out)
	}
}

// checkPosterior asserts the posterior example's two claims: the count
// posterior has positive mass on at least two counts, and the faint
// artifact's coverage probability is strictly between 0 and 1.
func checkPosterior(t *testing.T, out string) {
	t.Helper()
	counts := 0
	for _, m := range regexp.MustCompile(`(?m)^  n=\s*\d+  ([0-9.]+)`).FindAllStringSubmatch(out, -1) {
		if p, _ := strconv.ParseFloat(m[1], 64); p > 0 {
			counts++
		}
	}
	if counts < 2 {
		t.Errorf("posterior: %d artifact counts with positive mass, want >= 2:\n%s", counts, out)
	}
	m := regexp.MustCompile(`P\(faint artifact region covered\) = ([0-9.]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("posterior printed no faint-region coverage:\n%s", out)
	}
	if p, _ := strconv.ParseFloat(m[1], 64); !(p > 0 && p < 1) {
		t.Errorf("posterior: faint-region coverage %v, want strictly inside (0, 1)", p)
	}
}
