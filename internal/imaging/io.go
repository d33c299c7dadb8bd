package imaging

import (
	"bufio"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"strconv"

	"repro/internal/geom"
)

// WritePGM writes the image as a binary PGM (P5) with 8-bit depth.
// Intensities are clamped to [0, 1] and scaled to 0–255.
func (im *Image) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, im.W)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			buf[x] = toByte(im.At(x, y))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func toByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(v*255 + 0.5)
}

// MaxPixels bounds the images ReadPGM decodes: 2^24 pixels (4096×4096),
// 128 MiB of float64 samples.
const MaxPixels = 1 << 24

// ReadPGM parses a binary (P5) or ASCII (P2) PGM image, scaling samples
// to [0, 1]. The header's dimensions are checked against MaxPixels
// before anything is allocated, so untrusted input cannot size the
// raster, and a sample above the header's maxval (or, in P2, one that
// is not a plain non-negative integer) is an error, so no decoded
// intensity leaves [0, 1].
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imaging: reading PGM magic: %w", err)
	}
	if magic != "P5" && magic != "P2" {
		return nil, fmt.Errorf("imaging: unsupported PGM magic %q", magic)
	}
	var w, h, maxv int
	for _, dst := range []*int{&w, &h, &maxv} {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, fmt.Errorf("imaging: reading PGM header: %w", err)
		}
		if *dst, err = strconv.Atoi(tok); err != nil {
			return nil, fmt.Errorf("imaging: bad PGM header token %q", tok)
		}
	}
	if w <= 0 || h <= 0 || maxv <= 0 || maxv > 65535 {
		return nil, fmt.Errorf("imaging: invalid PGM dimensions %dx%d max %d", w, h, maxv)
	}
	// Bounding each side first keeps w*h from overflowing.
	if w > MaxPixels || h > MaxPixels || w*h > MaxPixels {
		return nil, fmt.Errorf("imaging: PGM dimensions %dx%d exceed %d pixels", w, h, MaxPixels)
	}
	im := New(w, h)
	scale := 1 / float64(maxv)
	if magic == "P2" {
		for i := range im.Pix {
			tok, err := pgmToken(br)
			if err != nil {
				return nil, fmt.Errorf("imaging: reading PGM sample %d: %w", i, err)
			}
			v, err := strconv.Atoi(tok)
			if err != nil || v < 0 || v > maxv {
				return nil, fmt.Errorf("imaging: bad PGM sample %q (want an integer in [0, %d])", tok, maxv)
			}
			im.Pix[i] = float64(v) * scale
		}
		return im, nil
	}
	// P5: raw samples, 1 or 2 bytes each.
	bytesPer := 1
	if maxv > 255 {
		bytesPer = 2
	}
	raw := make([]byte, w*h*bytesPer)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("imaging: reading PGM raster: %w", err)
	}
	for i := range im.Pix {
		var v int
		if bytesPer == 1 {
			v = int(raw[i])
		} else {
			v = int(raw[2*i])<<8 | int(raw[2*i+1])
		}
		if v > maxv {
			return nil, fmt.Errorf("imaging: PGM sample %d is %d, above maxval %d", i, v, maxv)
		}
		im.Pix[i] = float64(v) * scale
	}
	return im, nil
}

// pgmToken returns the next whitespace-delimited token, skipping '#'
// comment lines as the PGM grammar requires.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

// WritePNG encodes the image as an 8-bit grayscale PNG.
func (im *Image) WritePNG(w io.Writer) error {
	g := image.NewGray(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			g.SetGray(x, y, color.Gray{Y: toByte(im.At(x, y))})
		}
	}
	return png.Encode(w, g)
}

// WriteOverlayPNG encodes the image as RGB PNG with the given circles
// outlined in red — handy for eyeballing detections.
func (im *Image) WriteOverlayPNG(w io.Writer, circles []geom.Ellipse) error {
	rgb := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := toByte(im.At(x, y))
			rgb.SetRGBA(x, y, color.RGBA{R: v, G: v, B: v, A: 255})
		}
	}
	red := color.RGBA{R: 255, A: 255}
	for _, c := range circles {
		drawCircleOutline(rgb, c, red)
	}
	return png.Encode(w, rgb)
}

func drawCircleOutline(img *image.RGBA, c geom.Ellipse, col color.RGBA) {
	// Parametric walk with sub-pixel steps, rotating the local-frame
	// boundary point by Theta (a no-op for discs).
	steps := int(c.MaxR()*8) + 16
	ct, st := math.Cos(c.Theta), math.Sin(c.Theta)
	for i := 0; i < steps; i++ {
		theta := 2 * math.Pi * float64(i) / float64(steps)
		u := c.Rx * math.Cos(theta)
		v := c.Ry * math.Sin(theta)
		x := int(c.X + u*ct - v*st)
		y := int(c.Y + u*st + v*ct)
		if x >= 0 && x < img.Rect.Dx() && y >= 0 && y < img.Rect.Dy() {
			img.SetRGBA(x, y, col)
		}
	}
}
