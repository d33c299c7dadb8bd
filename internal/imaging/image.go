// Package imaging is the image substrate for the MCMC case study: a
// float64 grayscale image type, the colour-emphasis and threshold filters
// of §III/§VIII, a synthetic scene renderer that stands in for the paper's
// micrographs, integral images, and
// PGM/PNG input/output.
package imaging

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Image is a W×H grayscale image with float64 intensities, normally in
// [0, 1]. Pixels are stored row-major. The zero value is an empty image.
type Image struct {
	W, H int
	Pix  []float64
}

// New returns a zeroed (all-background) image of the given size.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic("imaging: negative image dimensions")
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the intensity at (x, y). It panics when out of range, like a
// slice access would.
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set assigns the intensity at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// Bounds returns the image rectangle [0, W) × [0, H) in float coordinates.
func (im *Image) Bounds() geom.Rect {
	return geom.Rect{X1: float64(im.W), Y1: float64(im.H)}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]float64, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// SubImage copies the pixels inside rect (clipped to the image, pixel
// coordinates truncated to integers) into a new standalone image. The
// second return value is the integer offset of the copy's origin in the
// source image, needed to translate detections back (§VIII partitioning).
func (im *Image) SubImage(rect geom.Rect) (*Image, [2]int) {
	x0 := clampInt(int(math.Floor(rect.X0)), 0, im.W)
	y0 := clampInt(int(math.Floor(rect.Y0)), 0, im.H)
	x1 := clampInt(int(math.Ceil(rect.X1)), 0, im.W)
	y1 := clampInt(int(math.Ceil(rect.Y1)), 0, im.H)
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	out := New(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(out.Pix[(y-y0)*out.W:(y-y0+1)*out.W], im.Pix[y*im.W+x0:y*im.W+x1])
	}
	return out, [2]int{x0, y0}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Fill sets every pixel to v.
func (im *Image) Fill(v float64) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// Clamp limits every pixel to [0, 1].
func (im *Image) Clamp() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
}

// Mean returns the mean intensity, or 0 for an empty image.
func (im *Image) Mean() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range im.Pix {
		s += v
	}
	return s / float64(len(im.Pix))
}

// Threshold returns a binary image: 1 where the intensity strictly
// exceeds theta, 0 elsewhere. This is the filter of eq. 5 and the
// intelligent-partitioning pre-processor (§VIII).
func (im *Image) Threshold(theta float64) *Image {
	out := New(im.W, im.H)
	for i, v := range im.Pix {
		if v > theta {
			out.Pix[i] = 1
		}
	}
	return out
}

// CountAbove returns |{(x,y) : I(x,y) > theta}| — the numerator of the
// eq. 5 object-count estimate.
func (im *Image) CountAbove(theta float64) int {
	n := 0
	for _, v := range im.Pix {
		if v > theta {
			n++
		}
	}
	return n
}

// EstimateCount implements eq. 5: the expected number of circular
// artifacts of mean radius r in the region where intensity exceeds theta,
//
//	|{(x,y) ∈ M : I(x,y) > θ}| / (π r²).
func (im *Image) EstimateCount(theta, meanRadius float64) float64 {
	if meanRadius <= 0 {
		return 0
	}
	return float64(im.CountAbove(theta)) / (math.Pi * meanRadius * meanRadius)
}

// Emphasize applies the colour-of-interest filter of §III in grayscale
// form: intensities are remapped so that values near target are boosted
// toward 1 and values far from it are suppressed, with softness sigma.
// The output is clamped to [0, 1].
func (im *Image) Emphasize(target, sigma float64) *Image {
	if sigma <= 0 {
		panic("imaging: Emphasize needs positive sigma")
	}
	out := New(im.W, im.H)
	inv := 1 / (2 * sigma * sigma)
	for i, v := range im.Pix {
		d := v - target
		out.Pix[i] = math.Exp(-d * d * inv)
	}
	return out
}

// Equal reports whether two images have identical dimensions and pixels
// within tol.
func (im *Image) Equal(o *Image, tol float64) bool {
	if im.W != o.W || im.H != o.H {
		return false
	}
	for i := range im.Pix {
		if math.Abs(im.Pix[i]-o.Pix[i]) > tol {
			return false
		}
	}
	return true
}

// String summarises the image for debugging.
func (im *Image) String() string {
	return fmt.Sprintf("Image(%dx%d, mean=%.3f)", im.W, im.H, im.Mean())
}
