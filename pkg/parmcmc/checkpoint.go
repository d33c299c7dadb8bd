package parmcmc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"time"

	"repro/internal/imaging"
)

// Checkpoint is a self-contained, serializable snapshot of a running
// detection, independent of Result: the strategy name, the chain-
// affecting options, an image fingerprint, accumulated wall-clock, and
// an opaque strategy payload holding model state, RNG streams and
// per-strategy bookkeeping. DetectResume continues a checkpointed run
// and produces results bit-identical to the uninterrupted run.
//
// Checkpoints are emitted through Options.OnCheckpoint at chunk
// boundaries, so they always sit on the same phase/swap/convergence-
// check alignment an uninterrupted run would pass through. The struct's
// fields are exported only for serialization; treat it as opaque and
// persist it with MarshalBinary.
type Checkpoint struct {
	// Version guards the wire format.
	Version int
	// Strategy is the published name (Strategy.String) of the strategy
	// that produced the checkpoint.
	Strategy string
	// W, H and PixHash fingerprint the image; DetectResume refuses an
	// image that does not match.
	W, H    int
	PixHash uint64
	// Elapsed accumulates the wall-clock of all completed segments.
	Elapsed time.Duration
	// Options are the chain-affecting options of the original run. On
	// resume Strategy above overrides Options.Strategy, which older
	// checkpoints lack; an empty Options.Shape reads as Discs.
	Options OptionsSpec
	// Data is the strategy sampler's private payload.
	Data []byte
}

// checkpointVersion is the current wire format version. Version 2: the
// configuration element changed from Circle{X,Y,R} to the generic
// Ellipse{X,Y,Rx,Ry,Theta}, whose gob payloads are not interchangeable
// (a v1 blob would decode with every radius silently zeroed), so v1
// checkpoints are rejected loudly instead.
const checkpointVersion = 2

// hashImage fingerprints the clamped pixel buffer (FNV-1a over the bit
// patterns plus the dimensions).
func hashImage(im *imaging.Image) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		for _, x := range b {
			h ^= uint64(x)
			h *= prime64
		}
	}
	mix(uint64(im.W))
	mix(uint64(im.H))
	for _, p := range im.Pix {
		mix(math.Float64bits(p))
	}
	return h
}

// MarshalBinary serializes the checkpoint (encoding/gob).
func (cp *Checkpoint) MarshalBinary() ([]byte, error) {
	// The method-free alias keeps gob from recursing into
	// MarshalBinary itself.
	type wire Checkpoint
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode((*wire)(cp)); err != nil {
		return nil, fmt.Errorf("parmcmc: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary deserializes a checkpoint written by MarshalBinary.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	type wire Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode((*wire)(cp)); err != nil {
		return fmt.Errorf("parmcmc: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("parmcmc: unsupported checkpoint version %d", cp.Version)
	}
	return nil
}

// encodePayload / decodePayload gob-round-trip a strategy's private
// checkpoint payload.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("parmcmc: encoding strategy payload: %w", err)
	}
	return buf.Bytes(), nil
}

func decodePayload(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("parmcmc: decoding strategy payload: %w", err)
	}
	return nil
}

// buildCheckpoint assembles a Checkpoint around the sampler's payload.
func buildCheckpoint(env *runEnv, smp sampler, elapsed time.Duration) (*Checkpoint, error) {
	data, err := smp.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Version:  checkpointVersion,
		Strategy: env.opt.Strategy.String(),
		W:        env.im.W, H: env.im.H,
		PixHash: env.hash(),
		Elapsed: elapsed,
		Options: env.opt.Spec(),
		Data:    data,
	}, nil
}

// DetectResume continues a checkpointed detection over the same pixel
// buffer the original run was given, to completion, and returns a
// Result bit-identical (circles, log-posterior, iteration and
// acceptance accounting) to the uninterrupted run's. Chain-affecting
// options come from the checkpoint; the callbacks (Observer,
// OnCheckpoint, CheckpointEvery), SimulateParallel and a positive
// Workers override come from opt — none of them affects results.
func DetectResume(ctx context.Context, pix []float64, w, h int, opt Options, cp *Checkpoint) (*Result, error) {
	if cp == nil {
		return nil, fmt.Errorf("parmcmc: nil checkpoint")
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("parmcmc: unsupported checkpoint version %d", cp.Version)
	}
	if _, err := ParseStrategy(cp.Strategy); err != nil {
		return nil, fmt.Errorf("parmcmc: checkpoint for unknown strategy %q", cp.Strategy)
	}
	spec := cp.Options
	spec.Strategy = cp.Strategy
	ro, err := spec.Options()
	if err != nil { // the strategy parsed above, so the shape is unknown
		return nil, fmt.Errorf("parmcmc: checkpoint for unknown shape %q", spec.Shape)
	}
	ro.Observer = opt.Observer
	ro.OnCheckpoint = opt.OnCheckpoint
	ro.CheckpointEvery = opt.CheckpointEvery
	ro.SimulateParallel = opt.SimulateParallel
	if opt.Workers > 0 {
		ro.Workers = opt.Workers
	}
	env, err := newRunEnv(pix, w, h, ro)
	if err != nil {
		return nil, err
	}
	if env.im.W != cp.W || env.im.H != cp.H || env.hash() != cp.PixHash {
		return nil, fmt.Errorf("parmcmc: checkpoint does not match this image (%dx%d, hash %x; checkpoint %dx%d, hash %x)",
			env.im.W, env.im.H, env.hash(), cp.W, cp.H, cp.PixHash)
	}
	smp, err := newSampler(env)
	if err != nil {
		return nil, err
	}
	if err := smp.Resume(cp.Data); err != nil {
		return nil, err
	}
	return drive(ctx, env, smp, cp.Elapsed)
}
