// Package model implements the case-study posterior of §III: a marked
// point process of shapes (discs or ellipses, per Params.Shape) over a
// filtered grayscale image, with a Poisson count prior, truncated-Normal
// size priors (the radius for discs; both semi-axes plus a uniform
// rotation for ellipses), pairwise overlap penalty and a two-level
// Gaussian pixel likelihood.
//
// # Layers
//
// The package exposes two layers:
//
//   - Field, the batched span kernels (LikDeltaAdd, LikDeltaMovePrepared,
//     CoverMovePrepared, ...) over the shared gain and coverage buffers.
//     The parallel engines call these directly from partition workers,
//     which own disjoint pixel regions — and disjoint occupancy blocks —
//     of the shared buffers.
//   - State, a cached full configuration (shapes + coverage + running
//     log-posterior + spatial index) used by the sequential engine and as
//     the merge target for parallel phases. State.Recompute provides the
//     ground truth that every incremental path is tested against.
//
// # Block occupancy (Field)
//
// Field shadows the coverage buffer with an 8×8-block summary: for each
// block b, occ[2b] is the total coverage mass inside the block and
// occ[2b+1] is the count of covered pixels. Two skip rules follow:
//
//   - mass == 0: the block is uniformly uncovered. An add prices it in
//     O(1) from the gain prefix sums (BuildGainRowSums); a remove or
//     move-out cannot touch it at multiplicity > 1.
//   - mass == count: the block is uniformly single-covered. A remove or
//     move-out prices it in O(1); an add knows every pixel it overlaps
//     there goes 1→2 (no gain change).
//
// Every cover commit keeps the summary exact — there is no staleness
// window. There is one layout and plain access throughout: concurrent
// periodic-partition workers never share a block, because the ownership
// margin (Params.LocalityMargin) is never below blockHalo, so the pixels
// of two workers' shapes are more than a block width apart on some axis.
//
// The move commit replays the new shape's span table from a MoveSpans
// cache (LikDeltaMovePrepared, then CoverMovePrepared), so a proposal
// rasterises each shape once. The kernels must match the test-only naive
// bounding-box references in naive_test.go bit-for-bit on coverage and to
// 1e-9 on likelihood; the differential tests and FuzzLikDeltaDifferential
// pin this through occupancy-backed Fields.
//
// # Span tables
//
// State keeps the span table of every live shape, keyed by the exact
// ellipse it was rasterised from. A shape is rasterised once when it
// enters the state or changes (ApplyAdd, ApplyMoveCached, ApplyExchange,
// CommitMoved, Restore); every evaluation that prices or removes it
// (EvalRemove, EvalMoveCached, EvalExchange, the periodic cell workers)
// reads the stored table. A read whose key mismatches rasterises afresh
// into scratch, so a stale table is never used. Tables are pure
// geometry, so the kernels see exactly the spans they would have
// computed; they are derived data and never serialised.
package model
