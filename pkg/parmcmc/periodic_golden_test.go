package parmcmc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The periodic strategies have no checkpoint golden of their own, and the
// determinism suite compares two runs of the same binary. These hashes pin
// their output across commits: a change to the executor (fork/join, the
// gang, speculative batching, the width controller) may change speed but
// never the chain. Workers 1 and 2 must hash alike, because scheduling
// never reaches the arithmetic.
//
// If a hash changes on purpose (a new proposal kernel, a new prior), say
// so in the change and replace the constant with the one the failure
// prints.
func TestPeriodicResultsPinned(t *testing.T) {
	cases := []struct {
		strategy Strategy
		shape    Shape
		want     uint64
	}{
		{Periodic, Discs, 0xad3308eb22879db6},
		{PeriodicSpeculative, Discs, 0xeb0d09751af32c2e},
		{Periodic, Ellipses, 0x15d88d196f922f3b},
		{PeriodicSpeculative, Ellipses, 0x264dc258d65a6192},
	}
	const w, h = 160, 160
	for _, tc := range cases {
		pix, _ := GenerateScene(SceneSpec{
			W: w, H: h, Count: 18, MeanRadius: 7, Noise: 0.08, Seed: 21, Shape: tc.shape,
		})
		for _, workers := range []int{1, 2} {
			opt := Options{
				Strategy: tc.strategy, Shape: tc.shape, MeanRadius: 7,
				Iterations: 20000, Seed: 5, Workers: workers,
			}
			res, err := Detect(pix, w, h, opt)
			if err != nil {
				t.Fatalf("%v/%v/workers=%d: %v", tc.strategy, tc.shape, workers, err)
			}
			if got := resultHash(res); got != tc.want {
				t.Errorf("%v/%v/workers=%d: result hash %#016x, want %#016x",
					tc.strategy, tc.shape, workers, got, tc.want)
			}
		}
	}
}

// resultHash digests the deterministic part of a Result: every shape, the
// posterior, the iteration and barrier counts and the move statistics.
// Wall-clock fields and the timing-driven SpecWidth/SpecBatches are left
// out.
func resultHash(r *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	i := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	i(int64(len(r.Ellipses)))
	for _, e := range r.Ellipses {
		f(e.X)
		f(e.Y)
		f(e.Rx)
		f(e.Ry)
		f(e.Theta)
	}
	f(r.LogPost)
	i(r.Iterations)
	i(r.Barriers)
	f(r.AcceptRate)
	f(r.GlobalRejectRate)
	f(r.LocalRejectRate)
	return h.Sum64()
}
