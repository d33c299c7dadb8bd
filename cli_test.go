package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd/ binaries into a temp dir once per
// test run.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// End-to-end CLI pipeline: imagegen renders a scene to PGM, mcmcimg
// detects its artifacts and writes CSV + overlay.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	imagegen := buildTool(t, "imagegen")
	mcmcimg := buildTool(t, "mcmcimg")

	pgm := filepath.Join(dir, "scene.pgm")
	gen := exec.Command(imagegen,
		"-w", "128", "-h", "128", "-count", "5", "-radius", "8",
		"-noise", "0.05", "-seed", "4", "-out", pgm)
	genOut, err := gen.Output()
	if err != nil {
		t.Fatalf("imagegen: %v", err)
	}
	truthLines := strings.Count(strings.TrimSpace(string(genOut)), "\n")
	if truthLines < 3 { // header + >=3 artifacts
		t.Fatalf("imagegen CSV too short:\n%s", genOut)
	}
	if fi, err := os.Stat(pgm); err != nil || fi.Size() == 0 {
		t.Fatalf("PGM not written: %v", err)
	}

	overlay := filepath.Join(dir, "overlay.png")
	det := exec.Command(mcmcimg,
		"-in", pgm, "-radius", "8", "-strategy", "blind",
		"-iters", "30000", "-seed", "2", "-overlay", overlay)
	detOut, err := det.Output()
	if err != nil {
		t.Fatalf("mcmcimg: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(detOut)), "\n")
	if lines[0] != "x,y,r" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	found := len(lines) - 1
	if found < 3 || found > 8 {
		t.Fatalf("mcmcimg found %d artifacts for a 5-artifact scene", found)
	}
	if fi, err := os.Stat(overlay); err != nil || fi.Size() == 0 {
		t.Fatalf("overlay not written: %v", err)
	}
}

// The experiments binary must list its registry and run a quick
// experiment by ID.
func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "experiments")

	list, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(string(list))
	if len(ids) != 8 || ids[0] != "fig1" {
		t.Fatalf("experiment list = %v", ids)
	}

	out, err := exec.Command(bin, "-run", "fig1", "-quick").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "== fig1:") {
		t.Fatalf("fig1 output missing header:\n%s", out)
	}

	// Unknown ID must fail with a useful message.
	bad := exec.Command(bin, "-run", "nope")
	if err := bad.Run(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// mcmcimg must reject missing required flags.
func TestCLIMcmcimgUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "mcmcimg")
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("no-args invocation succeeded")
	}
	if err := exec.Command(bin, "-in", "nonexistent.pgm", "-radius", "8").Run(); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCLIPipelineEllipse runs the same imagegen → mcmcimg pipeline over
// an elliptical scene: -shape threads through both binaries, the CSV
// switches to the full shape columns, and the rotated-outline overlay
// is written.
func TestCLIPipelineEllipse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	imagegen := buildTool(t, "imagegen")
	mcmcimg := buildTool(t, "mcmcimg")

	pgm := filepath.Join(dir, "scene.pgm")
	gen := exec.Command(imagegen,
		"-w", "128", "-h", "128", "-count", "5", "-radius", "8",
		"-shape", "ellipse", "-noise", "0.05", "-seed", "4", "-out", pgm)
	genOut, err := gen.Output()
	if err != nil {
		t.Fatalf("imagegen: %v", err)
	}
	if !strings.HasPrefix(string(genOut), "x,y,rx,ry,theta") {
		t.Fatalf("imagegen CSV header: %q", strings.SplitN(string(genOut), "\n", 2)[0])
	}

	overlay := filepath.Join(dir, "overlay.png")
	det := exec.Command(mcmcimg,
		"-in", pgm, "-radius", "8", "-shape", "ellipse", "-strategy", "periodic",
		"-iters", "30000", "-seed", "2", "-overlay", overlay)
	detOut, err := det.Output()
	if err != nil {
		t.Fatalf("mcmcimg: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(detOut)), "\n")
	if lines[0] != "x,y,rx,ry,theta" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	found := len(lines) - 1
	if found < 3 || found > 8 {
		t.Fatalf("mcmcimg found %d artifacts for a 5-artifact scene", found)
	}
	if fi, err := os.Stat(overlay); err != nil || fi.Size() == 0 {
		t.Fatalf("overlay not written: %v", err)
	}

	// An unknown shape must be rejected by both binaries.
	if err := exec.Command(mcmcimg, "-in", pgm, "-radius", "8", "-shape", "blob").Run(); err == nil {
		t.Fatal("mcmcimg accepted -shape blob")
	}
	if err := exec.Command(imagegen, "-shape", "blob", "-out", filepath.Join(dir, "x.pgm")).Run(); err == nil {
		t.Fatal("imagegen accepted -shape blob")
	}
}

// TestCLIMcmcimgBatch runs mcmcimg's batch mode (comma lists in -in and
// -strategy) at two -parallel values. The output must not depend on the
// concurrency, the "# job:" blocks must come in input-major order, and
// each block must equal the single-job run of its input and strategy.
func TestCLIMcmcimgBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	imagegen := buildTool(t, "imagegen")
	mcmcimg := buildTool(t, "mcmcimg")

	var pgms []string
	for i, seed := range []string{"4", "5"} {
		pgm := filepath.Join(dir, fmt.Sprintf("scene%d.pgm", i))
		if err := exec.Command(imagegen,
			"-w", "96", "-h", "96", "-count", "4", "-radius", "8",
			"-noise", "0.05", "-seed", seed, "-out", pgm).Run(); err != nil {
			t.Fatalf("imagegen: %v", err)
		}
		pgms = append(pgms, pgm)
	}
	strategies := []string{"sequential", "blind"}
	detect := func(in, strategy, parallel string) string {
		t.Helper()
		out, err := exec.Command(mcmcimg,
			"-in", in, "-strategy", strategy, "-parallel", parallel,
			"-radius", "8", "-iters", "8000", "-seed", "3").Output()
		if err != nil {
			t.Fatalf("mcmcimg -in %s -strategy %s -parallel %s: %v", in, strategy, parallel, err)
		}
		return string(out)
	}

	batch := detect(strings.Join(pgms, ","), strings.Join(strategies, ","), "1")
	if got := detect(strings.Join(pgms, ","), strings.Join(strategies, ","), "2"); got != batch {
		t.Fatalf("-parallel 2 output differs from -parallel 1:\n%s\nvs\n%s", got, batch)
	}

	var headers, wantHeaders []string
	for _, line := range strings.Split(batch, "\n") {
		if strings.HasPrefix(line, "# job: ") {
			headers = append(headers, line)
		}
	}
	var want strings.Builder
	for _, pgm := range pgms {
		for _, s := range strategies {
			h := fmt.Sprintf("# job: %s/%s", pgm, s)
			wantHeaders = append(wantHeaders, h)
			fmt.Fprintf(&want, "%s\n%s", h, detect(pgm, s, "1"))
		}
	}
	if strings.Join(headers, "\n") != strings.Join(wantHeaders, "\n") {
		t.Fatalf("job headers %q, want %q", headers, wantHeaders)
	}
	if batch != want.String() {
		t.Fatalf("batch output is not the single-job runs in input-major order:\n%s\nwant:\n%s", batch, want.String())
	}
}
