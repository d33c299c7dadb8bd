package imaging

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("bad image: %+v", im)
	}
	im.Set(2, 1, 0.5)
	if im.At(2, 1) != 0.5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if im.At(0, 0) != 0 {
		t.Fatal("fresh image not zeroed")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1, 5)
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 0.25)
	if a.At(0, 0) != 1 {
		t.Fatal("clone aliases parent")
	}
}

func TestSubImage(t *testing.T) {
	im := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			im.Set(x, y, float64(y*10+x))
		}
	}
	sub, off := im.SubImage(geom.Rect{X0: 2, Y0: 3, X1: 5, Y1: 7})
	if off != [2]int{2, 3} {
		t.Fatalf("offset = %v", off)
	}
	if sub.W != 3 || sub.H != 4 {
		t.Fatalf("sub dims %dx%d", sub.W, sub.H)
	}
	if sub.At(0, 0) != 32 || sub.At(2, 3) != 64 {
		t.Fatalf("sub content wrong: %v %v", sub.At(0, 0), sub.At(2, 3))
	}
}

func TestSubImageClipsToBounds(t *testing.T) {
	im := New(5, 5)
	sub, off := im.SubImage(geom.Rect{X0: -3, Y0: -3, X1: 100, Y1: 2})
	if off != [2]int{0, 0} || sub.W != 5 || sub.H != 2 {
		t.Fatalf("clip failed: off=%v dims=%dx%d", off, sub.W, sub.H)
	}
	empty, _ := im.SubImage(geom.Rect{X0: 9, Y0: 9, X1: 10, Y1: 10})
	if empty.W != 0 || empty.H != 0 {
		t.Fatalf("out-of-range sub not empty: %dx%d", empty.W, empty.H)
	}
}

func TestThresholdAndCount(t *testing.T) {
	im := New(3, 1)
	im.Pix = []float64{0.2, 0.6, 0.9}
	th := im.Threshold(0.5)
	if th.Pix[0] != 0 || th.Pix[1] != 1 || th.Pix[2] != 1 {
		t.Fatalf("threshold = %v", th.Pix)
	}
	if n := im.CountAbove(0.5); n != 2 {
		t.Fatalf("CountAbove = %d", n)
	}
}

func TestEstimateCountEq5(t *testing.T) {
	// Render k discs of radius r; eq. 5 should estimate ~k.
	r := rng.New(10)
	scene := Synthesize(SceneSpec{
		W: 256, H: 256, Count: 12, MeanRadius: 9, RadiusStdDev: 0,
		MinSeparation: 1.1, Noise: 0,
	}, r)
	est := scene.Image.EstimateCount(0.5, 9)
	if math.Abs(est-float64(len(scene.Truth))) > 2 {
		t.Fatalf("eq5 estimate %v for %d discs", est, len(scene.Truth))
	}
}

// TestEstimateCountInPartition applies eq. 5 to a cropped partition, the
// way each region chain assigns its own prior.
func TestEstimateCountInPartition(t *testing.T) {
	im := New(100, 100)
	RenderShape(im, geom.Disc(25, 25, 8), 1)
	RenderShape(im, geom.Disc(75, 75, 8), 1)
	crop, _ := im.SubImage(geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100})
	if left := crop.EstimateCount(0.5, 8); math.Abs(left-1) > 0.3 {
		t.Fatalf("left-half estimate %v, want ~1", left)
	}
	if crop.EstimateCount(0.5, 0) != 0 {
		t.Fatal("zero radius must yield 0")
	}
}

func TestEmphasize(t *testing.T) {
	im := New(3, 1)
	im.Pix = []float64{0.1, 0.8, 0.5}
	out := im.Emphasize(0.8, 0.2)
	if out.Pix[1] <= out.Pix[0] || out.Pix[1] <= out.Pix[2] {
		t.Fatalf("target intensity not emphasised: %v", out.Pix)
	}
	if out.Pix[1] < 0.99 {
		t.Fatalf("exact match should be ~1, got %v", out.Pix[1])
	}
}

func TestEmphasizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1, 1).Emphasize(0.5, 0)
}

func TestRenderDiscCoversExpectedArea(t *testing.T) {
	im := New(100, 100)
	c := geom.Disc(50, 50, 15)
	RenderShape(im, c, 1)
	total := 0.0
	for _, v := range im.Pix {
		total += v
	}
	want := c.Area()
	if math.Abs(total-want)/want > 0.02 {
		t.Fatalf("rendered mass %v, want ~%v", total, want)
	}
}

func TestRenderDiscClipsAtBorder(t *testing.T) {
	im := New(20, 20)
	// Must not panic and must only paint in-bounds pixels.
	RenderShape(im, geom.Disc(0, 0, 10), 1)
	RenderShape(im, geom.Disc(25, 25, 10), 1)
	if im.At(19, 19) == 0 {
		t.Fatal("disc at (25,25,r=10) should reach (19,19)")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := SceneSpec{W: 64, H: 64, Count: 5, MeanRadius: 6, Noise: 0.05}
	a := Synthesize(spec, rng.New(42))
	b := Synthesize(spec, rng.New(42))
	if !a.Image.Equal(b.Image, 0) {
		t.Fatal("same seed produced different images")
	}
	if len(a.Truth) != len(b.Truth) {
		t.Fatal("same seed produced different truths")
	}
}

func TestSynthesizeClustered(t *testing.T) {
	r := rng.New(7)
	scene := Synthesize(SceneSpec{
		W: 300, H: 300, Count: 30, Clusters: 3, MeanRadius: 8,
	}, r)
	if len(scene.Truth) != 30 {
		t.Fatalf("placed %d artifacts", len(scene.Truth))
	}
	// Clustered scenes should leave large empty bands: check that some
	// 60px column strip is empty of artifact centres.
	found := false
	for x0 := 0.0; x0 <= 240; x0 += 10 {
		empty := true
		for _, c := range scene.Truth {
			if c.X >= x0-c.MaxR() && c.X <= x0+60+c.MaxR() {
				empty = false
				break
			}
		}
		if empty {
			found = true
			break
		}
	}
	// This is probabilistic but overwhelmingly likely for 3 tight
	// clusters in a 300px frame; failure indicates clustering is broken.
	if !found {
		t.Log("no empty 60px band found; clustering may be too loose")
	}
}

func TestSynthesizeMinSeparation(t *testing.T) {
	r := rng.New(9)
	scene := Synthesize(SceneSpec{
		W: 400, H: 400, Count: 20, MeanRadius: 10, RadiusStdDev: 0,
		MinSeparation: 1.0,
	}, r)
	for i, a := range scene.Truth {
		for _, b := range scene.Truth[i+1:] {
			if a.Dist(b) < (a.MaxR()+b.MaxR())-1e-9 {
				t.Fatalf("overlapping artifacts placed: %+v %+v", a, b)
			}
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	r := rng.New(3)
	scene := Synthesize(SceneSpec{W: 33, H: 17, Count: 3, MeanRadius: 4, Noise: 0.1}, r)
	var buf bytes.Buffer
	if err := scene.Image.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !scene.Image.Equal(back, 1.0/255+1e-9) {
		t.Fatal("PGM roundtrip lost more than quantisation error")
	}
}

func TestReadPGMAscii(t *testing.T) {
	src := "P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n"
	im, err := ReadPGM(bytes.NewBufferString(src))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 3 || im.H != 2 {
		t.Fatalf("dims %dx%d", im.W, im.H)
	}
	if math.Abs(im.At(1, 0)-128.0/255) > 1e-9 {
		t.Fatalf("pixel = %v", im.At(1, 0))
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := []string{
		"",
		"P9\n1 1\n255\n\x00",
		"P5\n0 0\n255\n",
		"P5\n2 2\n255\nab", // truncated raster
		// Dimensions beyond MaxPixels are refused before the raster is
		// sized. The first three products exceed the maximum slice
		// length, so an unguarded New panics in make rather than
		// allocating; the last wraps w*h to zero.
		"P5 1000000000 1000000000 255\n",
		"P2 1073741824 1073741824 255\n",
		"P5 1 4611686018427387904 255\n",
		"P5 4294967296 4294967296 255\n",
	}
	for _, src := range cases {
		if _, err := ReadPGM(bytes.NewBufferString(src)); err == nil {
			t.Errorf("ReadPGM(%q) succeeded, want error", src)
		}
	}
}

func TestWritePNG(t *testing.T) {
	im := New(8, 8)
	im.Fill(0.5)
	var buf bytes.Buffer
	if err := im.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || string(buf.Bytes()[1:4]) != "PNG" {
		t.Fatal("not a PNG")
	}
}

func TestWriteOverlayPNG(t *testing.T) {
	im := New(32, 32)
	var buf bytes.Buffer
	err := im.WriteOverlayPNG(&buf, []geom.Ellipse{geom.Disc(16, 16, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty PNG")
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	im := New(37, 23)
	for i := range im.Pix {
		im.Pix[i] = r.Float64()
	}
	it := NewIntegral(im)
	for trial := 0; trial < 500; trial++ {
		x0, x1 := r.Intn(im.W+1), r.Intn(im.W+1)
		y0, y1 := r.Intn(im.H+1), r.Intn(im.H+1)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		want := 0.0
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				want += im.At(x, y)
			}
		}
		got := it.Sum(x0, y0, x1, y1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Sum(%d,%d,%d,%d) = %v, want %v", x0, y0, x1, y1, got, want)
		}
	}
}

func TestIntegralClipsAndEmpty(t *testing.T) {
	im := New(4, 4)
	im.Fill(1)
	it := NewIntegral(im)
	if got := it.Sum(-5, -5, 100, 100); got != 16 {
		t.Fatalf("clipped sum = %v", got)
	}
	if got := it.Sum(2, 2, 2, 3); got != 0 {
		t.Fatalf("empty sum = %v", got)
	}
	if got := it.Mean(0, 0, 4, 4); got != 1 {
		t.Fatalf("mean = %v", got)
	}
	if got := it.Mean(3, 3, 3, 3); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}

// Property: thresholding twice is idempotent and CountAbove agrees with
// the thresholded image's mass.
func TestThresholdProperty(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint8) bool {
		im := New(16, 16)
		for i := range im.Pix {
			im.Pix[i] = r.Float64()
		}
		theta := r.Float64()
		th := im.Threshold(theta)
		again := th.Threshold(0.5)
		if !th.Equal(again, 0) {
			return false
		}
		mass := 0.0
		for _, v := range th.Pix {
			mass += v
		}
		return int(mass+0.5) == im.CountAbove(theta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndString(t *testing.T) {
	im := New(2, 1)
	im.Pix = []float64{0, 1}
	if im.Mean() != 0.5 {
		t.Fatalf("mean = %v", im.Mean())
	}
	if (&Image{}).Mean() != 0 {
		t.Fatal("empty image mean should be 0")
	}
	if im.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestClamp(t *testing.T) {
	im := New(3, 1)
	im.Pix = []float64{-0.5, 0.5, 1.5}
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 0.5 || im.Pix[2] != 1 {
		t.Fatalf("clamp = %v", im.Pix)
	}
}

// BenchmarkRenderShape renders 48 shapes of radius 7–11 over a 512×384
// image per op: the per-artifact cost of every synthesized scene.
func BenchmarkRenderShape(b *testing.B) {
	for _, kind := range []string{"disc", "ellipse"} {
		r := rng.New(3)
		shapes := make([]geom.Ellipse, 48)
		for i := range shapes {
			x, y, rad := r.Uniform(0, 512), r.Uniform(0, 384), r.Uniform(7, 11)
			shapes[i] = geom.Disc(x, y, rad)
			if kind == "ellipse" {
				shapes[i].Ry = rad * r.Uniform(0.5, 1)
				shapes[i].Theta = r.Uniform(0, math.Pi)
			}
		}
		im := New(512, 384)
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, e := range shapes {
					RenderShape(im, e, 0.9)
				}
			}
		})
	}
}
