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
		rec, input, aerr := decodeSubmit(ct, body, q)
		switch {
		case aerr != nil:
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("non-4xx decoder error %d (%s)", aerr.status, aerr.msg)
			}
			if aerr.code == "" {
				t.Fatalf("decoder error without machine-readable code (%s)", aerr.msg)
			}
			if rec != nil || input != nil {
				t.Fatal("record returned alongside an error")
			}
			assertEnvelope(t, aerr)
		case rec == nil:
			t.Fatal("nil record without error")
		default:
			// An accepted submission must be self-consistent: a usable
			// input and validated options. A scene is not synthesized
			// here (it may be 4096² pixels); an upload is decoded as
			// its run will.
			if rec.Scene == nil && input == nil {
				t.Fatal("accepted submission with no input")
			}
			spec := rec.Options
			opt, oerr := optionsFromSpec(&spec)
			if oerr != nil {
				t.Fatalf("accepted options that do not validate: %v", oerr)
			}
			if input != nil {
				pix, w, h, _, err := materialize(*rec, input)
				if err != nil {
					t.Fatalf("accepted upload that does not materialise: %v", err)
				}
				if len(pix) != w*h {
					t.Fatalf("accepted %dx%d image with %d pixels", w, h, len(pix))
				}
			}
			if !(opt.MeanRadius > 0) { // also rejects NaN
				t.Fatal("accepted options without a positive finite mean radius")
			}
			if !isFinite(opt.MeanRadius, opt.ExpectedCount, opt.Threshold,
				opt.GridSlack, opt.OverlapPenalty, opt.HeatStep) {
				t.Fatal("accepted non-finite option value")
			}
		}
	})
}

// FuzzPGMDims pins the guarded PGM header parse that uploads share with
// mcmcimg: on arbitrary bytes imaging.ReadPGM never panics, an accepted
// image has positive dimensions within the pixel bound, a full raster
// and every sample in [0, 1], and the upload decoder agrees with it on
// every PGM body, rejecting with a typed 400.
func FuzzPGMDims(f *testing.F) {
	f.Add([]byte("P5 8 8 255\n"))
	f.Add([]byte("P5\t#c\n8\r8 65535 "))
	f.Add([]byte("P5 -3 8 255\n"))
	f.Add([]byte("P5 99999999999999999999 8 255\n"))
	f.Add([]byte("P5 1000000000 1000000000 255\n"))
	f.Add([]byte("P2 2 1 9\n3 9"))
	f.Add([]byte("P2 2 1 255\n300 7abc"))
	f.Add([]byte("P5 1 1 100\n\xff"))
	f.Add([]byte("#only a comment"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		im, err := imaging.ReadPGM(bytes.NewReader(body))
		if err == nil && (im.W <= 0 || im.H <= 0 || im.W*im.H > maxImagePixels || len(im.Pix) != im.W*im.H) {
			t.Fatalf("accepted %dx%d image with %d pixels", im.W, im.H, len(im.Pix))
		}
		if err == nil {
			for i, v := range im.Pix {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("accepted sample %d = %g outside [0, 1]", i, v)
				}
			}
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
