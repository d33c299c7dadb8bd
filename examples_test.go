package repro

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds every examples/* program and runs it to
// completion: each must exit 0. The examples write their overlay files
// into a temp dir. beads must also detect every bead on all three of its
// rows (sequential, intelligent, blind).
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
			if name == "beads" {
				checkBeadsF1(t, string(out))
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
