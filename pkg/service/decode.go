package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/imaging"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Request-size and workload guards: every limit turns a hostile input
// into a typed 4xx before it can allocate or burn CPU.
const (
	// MaxBodyBytes bounds an upload or JSON body.
	MaxBodyBytes = 32 << 20
	// maxImagePixels bounds decoded uploads and synthetic scenes: the
	// bound imaging.ReadPGM enforces, applied to every input format.
	maxImagePixels = imaging.MaxPixels
	// maxSceneDim bounds one side of a synthetic scene.
	maxSceneDim = 4096
	// maxSceneCount bounds the artifact count of a synthetic scene.
	maxSceneCount = 10000
	// maxIterations bounds one job's chain length.
	maxIterations = 100_000_000
)

// apiError is a typed HTTP-mappable error: decoders return it for
// malformed input (4xx) and handlers translate it verbatim. The fuzz
// suite pins that decoders produce these — never panics — on arbitrary
// bytes.
type apiError struct {
	status int
	code   string // machine-readable api.Code* constant for the envelope
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeSubmit parses one POST /v1/jobs request — a JSON
// scene+options body, or a raw PNG/PGM upload with options in query
// parameters — into the job's record as far as the submission fixes it
// (normalised options, the requested seed, the scene or the input file
// name) and the raw upload bytes (nil for a scene). An upload is fully
// decoded here, so a bad image is a typed 400, but its pixels are not
// kept: each run decodes the bytes again. All failures are typed 4xx
// apiErrors; arbitrary input must never panic.
func decodeSubmit(contentType string, body []byte, query url.Values) (*api.JobRecord, []byte, *apiError) {
	if isJSONSubmit(contentType, body) {
		rec, aerr := decodeJSONSubmit(body)
		return rec, nil, aerr
	}
	return decodeImageSubmit(contentType, body, query)
}

// isJSONSubmit decides the branch: an explicit JSON content type, or an
// unlabelled body whose first non-space byte is '{'.
func isJSONSubmit(contentType string, body []byte) bool {
	if mt := strings.TrimSpace(strings.Split(contentType, ";")[0]); mt == "application/json" {
		return true
	}
	if contentType == "" || contentType == "application/octet-stream" {
		trimmed := bytes.TrimLeft(body, " \t\r\n")
		return len(trimmed) > 0 && trimmed[0] == '{'
	}
	return false
}

func decodeJSONSubmit(body []byte) (*api.JobRecord, *apiError) {
	var req api.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON body")
	}
	if req.Scene == nil {
		return nil, badRequest("missing \"scene\" (image uploads send raw PNG/PGM bytes instead)")
	}
	sc := *req.Scene
	switch {
	case sc.W < 8 || sc.H < 8 || sc.W > maxSceneDim || sc.H > maxSceneDim:
		return nil, badRequest("scene dimensions %dx%d outside [8, %d]", sc.W, sc.H, maxSceneDim)
	case int64(sc.W)*int64(sc.H) > maxImagePixels:
		return nil, badRequest("scene exceeds %d pixels", maxImagePixels)
	case sc.Count < 0 || sc.Count > maxSceneCount:
		return nil, badRequest("scene count %d outside [0, %d]", sc.Count, maxSceneCount)
	case sc.MeanRadius <= 0 || sc.MeanRadius > float64(min(sc.W, sc.H)):
		return nil, badRequest("scene mean_radius %g outside (0, min(w,h)]", sc.MeanRadius)
	case sc.Noise < 0 || sc.Noise > 1:
		return nil, badRequest("scene noise %g outside [0, 1]", sc.Noise)
	case sc.Clusters < 0 || sc.Clusters > sc.Count:
		return nil, badRequest("scene clusters %d outside [0, count]", sc.Clusters)
	case !isFinite(sc.AxisRatio) || sc.AxisRatio < 0 || sc.AxisRatio > 1 ||
		(sc.AxisRatio != 0 && sc.AxisRatio < 0.5):
		// The synthesizer clamps effective ratios to [0.5, 1] (minor
		// axes must stay detectable); accepting a lower value would
		// silently produce a different scene than requested.
		return nil, badRequest("scene axis_ratio %g outside [0.5, 1] (0 = default)", sc.AxisRatio)
	}
	if sc.Shape != "" {
		shape, err := parmcmc.ParseShape(sc.Shape)
		if err != nil {
			return nil, badRequest("unknown scene shape %q", sc.Shape)
		}
		sc.Shape = shape.String()
	}
	if sc.AxisRatio != 0 && sc.Shape != parmcmc.Ellipses.String() {
		return nil, badRequest("scene axis_ratio requires shape \"ellipse\"")
	}
	spec := req.Options
	if spec.MeanRadius == 0 {
		spec.MeanRadius = sc.MeanRadius
	}
	if spec.Shape == "" {
		// Detection defaults to the scene's artifact family.
		spec.Shape = sc.Shape
	}
	if _, aerr := optionsFromSpec(&spec); aerr != nil {
		return nil, aerr
	}
	return &api.JobRecord{Seed: spec.Seed, Options: spec, Scene: &sc}, nil
}

// decodeImageBytes sniffs and decodes a raw PNG/PGM body — shared by
// the upload handler and materialize, which decodes the stored bytes
// again for every run.
func decodeImageBytes(contentType string, body []byte) (pix []float64, w, h int, ext string, _ *apiError) {
	switch {
	case bytes.HasPrefix(body, []byte("\x89PNG\r\n\x1a\n")):
		cfg, err := png.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			return nil, 0, 0, "", badRequest("invalid PNG: %v", err)
		}
		// int64 product: two in-bound sides can still overflow a 32-bit int.
		if cfg.Width <= 0 || cfg.Height <= 0 ||
			int64(cfg.Width)*int64(cfg.Height) > maxImagePixels {
			return nil, 0, 0, "", badRequest("PNG dimensions %dx%d exceed %d pixels", cfg.Width, cfg.Height, maxImagePixels)
		}
		img, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, 0, 0, "", badRequest("invalid PNG: %v", err)
		}
		pix, w, h = parmcmc.GrayPixels(img)
		return pix, w, h, "png", nil
	case isPGM(body):
		img, err := imaging.ReadPGM(bytes.NewReader(body))
		if err != nil {
			return nil, 0, 0, "", badRequest("invalid PGM: %v", err)
		}
		return img.Pix, img.W, img.H, "pgm", nil
	default:
		return nil, 0, 0, "", &apiError{
			status: http.StatusUnsupportedMediaType,
			code:   api.CodeUnsupportedMedia,
			msg:    fmt.Sprintf("unsupported body (content type %q): want JSON {\"scene\":…}, PNG or PGM", contentType),
		}
	}
}

func decodeImageSubmit(contentType string, body []byte, query url.Values) (*api.JobRecord, []byte, *apiError) {
	_, _, _, ext, aerr := decodeImageBytes(contentType, body)
	if aerr != nil {
		return nil, nil, aerr
	}
	spec, err := api.ParseOptionsQuery(query)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	if spec.MeanRadius <= 0 {
		return nil, nil, badRequest("image uploads require a positive mean_radius query parameter")
	}
	if _, aerr := optionsFromSpec(&spec); aerr != nil {
		return nil, nil, aerr
	}
	return &api.JobRecord{Seed: spec.Seed, Options: spec, Input: "input." + ext}, body, nil
}

// isFinite rejects NaN and ±Inf, which would sail through every ordered
// comparison. encoding/json cannot produce them, but the guard stays as
// a check on input from outside the program. Upload query values never
// reach it: they go through api.ParseOptionsQuery and Options.Validate.
func isFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// isPGM reports whether body starts with a PGM magic followed by
// whitespace or a comment.
func isPGM(body []byte) bool {
	if len(body) < 3 || body[0] != 'P' || (body[1] != '5' && body[1] != '2') {
		return false
	}
	switch body[2] {
	case ' ', '\t', '\r', '\n', '#':
		return true
	}
	return false
}

// optionsFromSpec validates an api.OptionsSpec and maps it onto
// parmcmc.Options, filling in the default strategy and shape names in
// place — the normalized spec is what the spool records, and
// re-applying this function to the record must reproduce the original
// Options exactly.
func optionsFromSpec(spec *api.OptionsSpec) (parmcmc.Options, *apiError) {
	if spec.Strategy == "" {
		spec.Strategy = parmcmc.Sequential.String()
	}
	if spec.Shape == "" {
		spec.Shape = parmcmc.Discs.String()
	}
	opt, err := spec.Options()
	if _, serr := parmcmc.ParseStrategy(spec.Strategy); serr != nil {
		return parmcmc.Options{}, badRequest("unknown strategy %q", spec.Strategy)
	}
	if err != nil { // the strategy is known, so the shape is not
		return parmcmc.Options{}, badRequest("unknown shape %q", spec.Shape)
	}
	// The service's own workload caps; every other bound is
	// parmcmc's (Options.Validate below).
	switch {
	case spec.Iterations > maxIterations:
		return parmcmc.Options{}, badRequest("iterations %d above %d", spec.Iterations, maxIterations)
	case spec.Workers > 1024:
		return parmcmc.Options{}, badRequest("workers %d above 1024", spec.Workers)
	case spec.PartitionGrid > 64:
		return parmcmc.Options{}, badRequest("partition_grid %d above 64", spec.PartitionGrid)
	case spec.Chains > 64:
		return parmcmc.Options{}, badRequest("chains %d above 64", spec.Chains)
	}
	if err := opt.Validate(); err != nil {
		// An *OptionError, whose message names the offending field.
		return parmcmc.Options{}, badRequest("%v", err)
	}
	return opt, nil
}
