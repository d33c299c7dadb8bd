package parmcmc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// Only Sequential has a checkpoint golden of its own, and the determinism
// suite compares two runs of the same binary. These hashes pin every
// strategy's output across commits: a change to the executor (fork/join,
// the gang, speculative batching, the width controller), to the region
// scheduler or to how the prior is priced may change speed but never the
// chain. Workers 1 and 2 must hash alike, because scheduling never
// reaches the arithmetic.
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
		{Sequential, Discs, 0x4d37cc5c28523c57},
		{Periodic, Discs, 0xad3308eb22879db6},
		{PeriodicSpeculative, Discs, 0xeb0d09751af32c2e},
		{Intelligent, Discs, 0x555631a70deab833},
		{Blind, Discs, 0x224643f52f2c5699},
		{Tempered, Discs, 0x19ef68fd104a0f59},
		{Sequential, Ellipses, 0x1d6059f40f6b5610},
		{Periodic, Ellipses, 0x15d88d196f922f3b},
		{PeriodicSpeculative, Ellipses, 0x264dc258d65a6192},
		{Intelligent, Ellipses, 0x1e2f380bdfab76f9},
		{Blind, Ellipses, 0xc7e1ac6b6205d8de},
		{Tempered, Ellipses, 0x3adfee0dedb00bcd},
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
			if got := pinnedHash(res); got != tc.want {
				t.Errorf("%v/%v/workers=%d: result hash %#016x, want %#016x",
					tc.strategy, tc.shape, workers, got, tc.want)
			}
		}
	}
}

// pinnedHash digests the deterministic part of a Result: every shape, the
// posterior, the iteration and barrier counts and the move statistics;
// then, where the strategy reports them, each region's iteration count
// and convergence flag (Intelligent, Blind) and the swap rate (Tempered).
// Wall-clock fields and the timing-driven SpecWidth/SpecBatches are left
// out. Periodic results carry neither extra, so their hashes predate the
// extras unchanged.
func pinnedHash(r *Result) uint64 {
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
	for _, reg := range r.Regions {
		i(reg.Iters)
		if reg.Converged {
			i(1)
		} else {
			i(0)
		}
	}
	if r.Strategy == Tempered {
		f(r.SwapRate)
	}
	return h.Sum64()
}
