package parmcmc

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mcmc"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden checkpoint fixtures under testdata/")

// goldenScene / goldenOptions pin the run that produced the committed
// checkpoint fixtures. Changing either without -update invalidates the
// v2 fixture's PixHash and the test will say so loudly.
var goldenScene = SceneSpec{W: 96, H: 96, Count: 5, MeanRadius: 7, Noise: 0.05, Seed: 3}

func goldenOptions() Options {
	return Options{Strategy: Sequential, MeanRadius: 7, Iterations: 16000, Seed: 11}
}

const (
	goldenV2 = "checkpoint_v2.golden"
	goldenV1 = "checkpoint_v1.golden"
)

// regenGoldenCheckpoints reruns the pinned detection, captures its first
// mid-run checkpoint as the v2 fixture, and derives the v1 fixture from
// it by stamping Version 1 — structurally plausible, but behind the
// version gate, which is exactly what the compat contract tests.
func regenGoldenCheckpoints(t *testing.T, pix []float64) {
	t.Helper()
	var first []byte
	opt := goldenOptions()
	opt.OnCheckpoint = func(cp *Checkpoint) {
		if first != nil {
			return
		}
		blob, err := cp.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal golden checkpoint: %v", err)
		}
		first = blob
	}
	if _, err := Detect(pix, goldenScene.W, goldenScene.H, opt); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("golden run emitted no mid-run checkpoint; enlarge Iterations")
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(first); err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	v1, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{goldenV2: first, goldenV1: v1} {
		if err := os.WriteFile(filepath.Join("testdata", name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("rewrote testdata/%s (%d bytes) and testdata/%s (%d bytes)", goldenV2, len(first), goldenV1, len(v1))
}

// The committed v2 fixture is the compatibility contract for the
// current checkpoint format: any change to the gob wire shape, the
// OptionsSpec fields, or the strategy payload that breaks decoding
// of ALREADY-PERSISTED checkpoints fails here — before it strands every
// spool in the field. The resumed run must also still be bit-identical
// to the uninterrupted one.
func TestGoldenCheckpointV2ResumesBitIdentical(t *testing.T) {
	pix, _ := GenerateScene(goldenScene)
	if *updateGolden {
		regenGoldenCheckpoints(t, pix)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", goldenV2))
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(blob); err != nil {
		t.Fatalf("committed v2 checkpoint no longer decodes — the wire format changed incompatibly: %v", err)
	}
	baseline, err := Detect(pix, goldenScene.W, goldenScene.H, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := DetectResume(context.Background(), pix, goldenScene.W, goldenScene.H, Options{}, &cp)
	if err != nil {
		t.Fatalf("committed v2 checkpoint no longer resumes: %v", err)
	}
	mustEqualResults(t, "golden-v2", baseline, resumed)
}

// A v1 checkpoint must be rejected LOUDLY, by version number, at both
// entry points. v1 predates the Circle→Ellipse configuration change;
// its gob payload would decode into the current structs with every
// radius silently zeroed, so "upgrade" deliberately means refuse +
// restart from scratch (pkg/service turns this into a scratch
// recovery), never a quiet wrong answer.
func TestGoldenCheckpointV1RejectedLoudly(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", goldenV1))
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	var cp Checkpoint
	err = cp.UnmarshalBinary(blob)
	if err == nil {
		t.Fatal("v1 checkpoint decoded without error")
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Fatalf("v1 rejection is not loud/specific: %v", err)
	}

	// DetectResume double-checks the version even on a hand-built
	// Checkpoint value that bypassed UnmarshalBinary.
	pix, _ := GenerateScene(goldenScene)
	_, err = DetectResume(context.Background(), pix, goldenScene.W, goldenScene.H, Options{}, &Checkpoint{Version: 1})
	if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Fatalf("DetectResume accepted or mis-reported a v1 checkpoint: %v", err)
	}
}

// legacyPeriodicDump is the periodic payload as older builds wrote it,
// with the Shadows field (the pre-adaptive executor's per-slot RNG
// streams) that periodicDump no longer declares.
type legacyPeriodicDump struct {
	Host                   mcmc.EngineDump
	Shadows                []rng.Saved
	ExecBatches            int64
	ExecConsumed           int64
	Barriers               int64
	SimLocalSeconds        float64
	GlobalSeconds          float64
	LocalSeconds           float64
	SimGlobalSeconds       float64
	SimGlobalSerialSeconds float64
}

// A PeriodicSpeculative checkpoint whose payload still carries a
// populated Shadows field must decode (gob skips the field) and resume
// to the uninterrupted run's result bit for bit.
func TestLegacyShadowsPayloadResumes(t *testing.T) {
	pix, _ := GenerateScene(goldenScene)
	opt := goldenOptions()
	opt.Strategy = PeriodicSpeculative
	opt.Workers = 2
	var first *Checkpoint
	opt.OnCheckpoint = func(cp *Checkpoint) {
		if first == nil {
			c := *cp
			first = &c
		}
	}
	baseline, err := Detect(pix, goldenScene.W, goldenScene.H, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("run emitted no mid-run checkpoint; enlarge Iterations")
	}
	var d periodicDump
	if err := decodePayload(first.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.ExecBatches == 0 {
		t.Fatal("checkpoint carries no speculative state; the test would prove nothing")
	}
	data, err := encodePayload(legacyPeriodicDump{
		Host:                   d.Host,
		Shadows:                []rng.Saved{rng.New(1).Save(), rng.New(2).Save()},
		ExecBatches:            d.ExecBatches,
		ExecConsumed:           d.ExecConsumed,
		Barriers:               d.Barriers,
		SimLocalSeconds:        d.SimLocalSeconds,
		GlobalSeconds:          d.GlobalSeconds,
		LocalSeconds:           d.LocalSeconds,
		SimGlobalSeconds:       d.SimGlobalSeconds,
		SimGlobalSerialSeconds: d.SimGlobalSerialSeconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	first.Data = data
	blob, err := first.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	resumed, err := DetectResume(context.Background(), pix, goldenScene.W, goldenScene.H, Options{}, &cp)
	if err != nil {
		t.Fatalf("legacy Shadows payload no longer resumes: %v", err)
	}
	mustEqualResults(t, "legacy-shadows", baseline, resumed)
}

// A checkpoint naming a strategy or shape this build does not know is
// refused with a message that names the checkpoint and the bad name.
func TestResumeRejectsUnknownNames(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", goldenV2))
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	pix, _ := GenerateScene(goldenScene)
	for _, tc := range []struct {
		edit func(*Checkpoint)
		want string
	}{
		{func(cp *Checkpoint) { cp.Strategy = "warp" }, `parmcmc: checkpoint for unknown strategy "warp"`},
		{func(cp *Checkpoint) { cp.Options.Shape = "hexagon" }, `parmcmc: checkpoint for unknown shape "hexagon"`},
	} {
		var cp Checkpoint
		if err := cp.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		tc.edit(&cp)
		_, err := DetectResume(context.Background(), pix, goldenScene.W, goldenScene.H, Options{}, &cp)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("resume error %v, want %q", err, tc.want)
		}
	}
}
