package model

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Kernel microbenchmarks: each LikDelta*/Cover* kernel benchmarked in its
// production scanline form — the Field layer with block occupancy
// counters, exactly what every engine runs — against the retained naive
// bounding-box reference, on the workload-typical disc size (r = 10, the
// bead/nuclei scale). The scanline/naive ratio is the kernel speedup
// tracked by BENCH_*.json.

func benchBuffers(b *testing.B, w, h int) (gain, gsum []float64, cover []int32) {
	b.Helper()
	r := rng.New(7)
	gain = make([]float64, w*h)
	for i := range gain {
		gain[i] = r.Uniform(-2, 2)
	}
	cover = make([]int32, w*h)
	for k := 0; k < 40; k++ {
		NaiveCoverAdd(cover, w, h, geom.Disc(
			r.Uniform(0, float64(w)), r.Uniform(0, float64(h)),
			r.Uniform(6, 14),
		), +1)
	}
	return gain, BuildGainRowSums(gain, w, h), cover
}

// benchField wraps the shared bench buffers in the production kernel
// layer: occupancy counters built, exactly as NewState would.
func benchField(b *testing.B, w, h int) (*Field, []float64, []int32) {
	b.Helper()
	gain, gsum, cover := benchBuffers(b, w, h)
	f := &Field{W: w, H: h, Gain: gain, GainSum: gsum, Cover: cover}
	f.InitOcc()
	return f, gain, cover
}

func BenchmarkLikDeltaAdd(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	c := geom.Disc(256.3, 255.7, 10)
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.LikDeltaAdd(c)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaAdd(gain, cover, 512, 512, c)
		}
	})
	_ = sink
}

func BenchmarkLikDeltaRemove(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	c := geom.Disc(256.3, 255.7, 10)
	f.CoverAdd(c, +1)
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.LikDeltaRemove(c)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaRemove(gain, cover, 512, 512, c)
		}
	})
	_ = sink
}

func BenchmarkLikDeltaMove(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	oldC := geom.Disc(256.3, 255.7, 10)
	newC := oldC.Translate(1.7, -2.1) // typical accepted shift: boxes overlap
	f.CoverAdd(oldC, +1)
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		// The production eval: the old shape's table is stored, the new
		// shape is rasterised on every call (Invalidate defeats the
		// cache a repeated newC would otherwise hit).
		var ms MoveSpans
		old := geom.AppendShapeSpans(nil, 512, 512, oldC)
		for i := 0; i < b.N; i++ {
			ms.Invalidate()
			sink += f.LikDeltaMovePrepared(old, newC, &ms)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaMove(gain, cover, 512, 512, oldC, newC)
		}
	})
	_ = sink
}

func BenchmarkLikDeltaMulti(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	// Split-shaped exchange: one disc out, two half-area discs in.
	removed := []geom.Ellipse{geom.Disc(256.3, 255.7, 10)}
	added := []geom.Ellipse{
		geom.Disc(252.1, 254.2, 7.2),
		geom.Disc(260.8, 257.9, 6.9),
	}
	f.CoverAdd(removed[0], +1)
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.LikDeltaMulti(removed, added)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaMulti(gain, cover, 512, 512, removed, added)
		}
	})
	_ = sink
}

func BenchmarkCoverMove(b *testing.B) {
	f, _, cover := benchField(b, 512, 512)
	oldC := geom.Disc(256.3, 255.7, 10)
	newC := oldC.Translate(1.7, -2.1)
	f.CoverAdd(oldC, +1)
	// scanline measures the production apply: an accepted move replays
	// the new-shape table its evaluation prepared (State.EvalMoveCached
	// → ApplyMoveCached) against the stored old-shape table, so no row
	// span is computed twice. cold recomputes
	// the spans, the pre-span-cache behaviour.
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		var there, back MoveSpans
		oldSp := geom.AppendShapeSpans(nil, 512, 512, oldC)
		newSp := geom.AppendShapeSpans(nil, 512, 512, newC)
		f.LikDeltaMovePrepared(oldSp, newC, &there)
		f.LikDeltaMovePrepared(newSp, oldC, &back)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Move there and back: leaves cover unchanged between pairs.
			f.CoverMovePrepared(oldSp, newC, &there)
			f.CoverMovePrepared(newSp, oldC, &back)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.CoverMove(oldC, newC)
			f.CoverMove(newC, oldC)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NaiveCoverMove(cover, 512, 512, oldC, newC)
			NaiveCoverMove(cover, 512, 512, newC, oldC)
		}
	})
}

// Ellipse-kernel microbenchmarks: the same workload-typical size with a
// 0.6 axis ratio and a rotation, exercising the quadratic span path the
// generic shape layer added. Tracked in BENCH_*.json alongside the disc
// kernels so the perf trajectory covers both families.

func benchEllipse() geom.Ellipse {
	return geom.Ellipse{X: 256.3, Y: 255.7, Rx: 12, Ry: 7.2, Theta: 0.6}
}

func BenchmarkLikDeltaAddEllipse(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	e := benchEllipse()
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.LikDeltaAdd(e)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaAdd(gain, cover, 512, 512, e)
		}
	})
	_ = sink
}

func BenchmarkLikDeltaMoveEllipse(b *testing.B) {
	f, gain, cover := benchField(b, 512, 512)
	oldC := benchEllipse()
	newC := oldC.Translate(1.7, -2.1)
	f.CoverAdd(oldC, +1)
	var sink float64
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		// The production eval: the old shape's table is stored, the new
		// shape is rasterised on every call (Invalidate defeats the
		// cache a repeated newC would otherwise hit).
		var ms MoveSpans
		old := geom.AppendShapeSpans(nil, 512, 512, oldC)
		for i := 0; i < b.N; i++ {
			ms.Invalidate()
			sink += f.LikDeltaMovePrepared(old, newC, &ms)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += NaiveLikDeltaMove(gain, cover, 512, 512, oldC, newC)
		}
	})
	_ = sink
}

func BenchmarkCoverMoveEllipse(b *testing.B) {
	f, _, cover := benchField(b, 512, 512)
	oldC := benchEllipse()
	newC := oldC.Translate(1.7, -2.1)
	newC.Theta = 0.7
	f.CoverAdd(oldC, +1)
	b.Run("scanline", func(b *testing.B) {
		b.ReportAllocs()
		var there, back MoveSpans
		oldSp := geom.AppendShapeSpans(nil, 512, 512, oldC)
		newSp := geom.AppendShapeSpans(nil, 512, 512, newC)
		f.LikDeltaMovePrepared(oldSp, newC, &there)
		f.LikDeltaMovePrepared(newSp, oldC, &back)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.CoverMovePrepared(oldSp, newC, &there)
			f.CoverMovePrepared(newSp, oldC, &back)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.CoverMove(oldC, newC)
			f.CoverMove(newC, oldC)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NaiveCoverMove(cover, 512, 512, oldC, newC)
			NaiveCoverMove(cover, 512, 512, newC, oldC)
		}
	})
}

// BenchmarkFusedMoveCover tracks the one-rasterisation move commit (the
// production LikDeltaMovePrepared + CoverMovePrepared pair of span walks)
// against the split equivalent that rasterises both shapes twice.
func BenchmarkFusedMoveCover(b *testing.B) {
	f, _, _ := benchField(b, 512, 512)
	oldC := geom.Disc(256.3, 255.7, 10)
	newC := oldC.Translate(1.7, -2.1)
	f.CoverAdd(oldC, +1)
	var sink float64
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.FusedMoveCover(oldC, newC)
			sink += f.FusedMoveCover(newC, oldC)
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += f.LikDeltaMove(oldC, newC)
			f.CoverMove(oldC, newC)
			sink += f.LikDeltaMove(newC, oldC)
			f.CoverMove(newC, oldC)
		}
	})
	_ = sink
}
