package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/imaging"
	"repro/internal/testcorpus"
	"repro/pkg/api"
)

// assertEnvelope renders a decoder error exactly the way the HTTP layer
// does and pins the wire guarantee: every 4xx body is a valid JSON
// ErrorEnvelope with a non-empty machine-readable code and message, no
// matter how hostile the input that produced it.
func assertEnvelope(t *testing.T, aerr *apiError) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeError(rec, aerr.status, aerr.code, "%s", aerr.msg)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response content type %q", ct)
	}
	var env api.ErrorEnvelope
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("error body is not a valid envelope: %v", err)
	}
	if env.Code == "" || env.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", env)
	}
}

// FuzzDecodeSubmit pins the satellite guarantee on the API request
// decoders: arbitrary bytes under every content-type branch must never
// panic and must only ever produce typed 4xx errors. `go test` runs
// the seed corpus; `go test -fuzz FuzzDecodeSubmit ./pkg/service`
// explores further. The seed corpus is shared with the E2E malformed
// sweep (test/e2e case C00301) via internal/testcorpus, so every entry
// is also replayed against a live daemon.
func FuzzDecodeSubmit(f *testing.F) {
	for _, e := range testcorpus.Submit() {
		f.Add(e.ContentType, e.Body, e.RawQuery)
	}

	f.Fuzz(func(t *testing.T, ct string, body []byte, rawQuery string) {
		if len(body) > 1<<20 {
			t.Skip("oversized fuzz input")
		}
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			q = nil
		}
		spec, aerr := decodeSubmit(ct, body, q)
		switch {
		case aerr != nil:
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("non-4xx decoder error %d (%s)", aerr.status, aerr.msg)
			}
			if aerr.code == "" {
				t.Fatalf("decoder error without machine-readable code (%s)", aerr.msg)
			}
			if spec != nil {
				t.Fatal("spec returned alongside an error")
			}
			assertEnvelope(t, aerr)
		case spec == nil:
			t.Fatal("nil spec without error")
		default:
			// An accepted submission must be self-consistent: a usable
			// input and validated options.
			if spec.scene == nil && spec.pix == nil {
				t.Fatal("accepted submission with no input")
			}
			if spec.pix != nil && len(spec.pix) != spec.w*spec.h {
				t.Fatalf("accepted %dx%d image with %d pixels", spec.w, spec.h, len(spec.pix))
			}
			if !(spec.opt.MeanRadius > 0) { // also rejects NaN
				t.Fatal("accepted options without a positive finite mean radius")
			}
			if !isFinite(spec.opt.MeanRadius, spec.opt.ExpectedCount, spec.opt.Threshold,
				spec.opt.GridSlack, spec.opt.OverlapPenalty, spec.opt.HeatStep) {
				t.Fatal("accepted non-finite option value")
			}
		}
	})
}

// FuzzPGMDims pins the guarded PGM header parse that uploads share with
// mcmcimg: on arbitrary bytes imaging.ReadPGM never panics, an accepted
// image has positive dimensions within the pixel bound and a full
// raster, and the upload decoder agrees with it on every PGM body,
// rejecting with a typed 400.
func FuzzPGMDims(f *testing.F) {
	f.Add([]byte("P5 8 8 255\n"))
	f.Add([]byte("P5\t#c\n8\r8 65535 "))
	f.Add([]byte("P5 -3 8 255\n"))
	f.Add([]byte("P5 99999999999999999999 8 255\n"))
	f.Add([]byte("P5 1000000000 1000000000 255\n"))
	f.Add([]byte("P2 2 1 9\n3 9"))
	f.Add([]byte("#only a comment"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		im, err := imaging.ReadPGM(bytes.NewReader(body))
		if err == nil && (im.W <= 0 || im.H <= 0 || im.W*im.H > maxImagePixels || len(im.Pix) != im.W*im.H) {
			t.Fatalf("accepted %dx%d image with %d pixels", im.W, im.H, len(im.Pix))
		}
		if !isPGM(body) {
			return
		}
		_, _, _, _, aerr := decodeImageBytes("", body)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("decoder (%v) and ReadPGM (%v) disagree", aerr, err)
		}
		if aerr != nil {
			if aerr.status != http.StatusBadRequest {
				t.Fatalf("status %d", aerr.status)
			}
			assertEnvelope(t, aerr)
		}
	})
}
