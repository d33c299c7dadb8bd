package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"net/http"
	"net/url"
	"strconv"
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
	// maxImagePixels bounds decoded uploads and synthetic scenes.
	maxImagePixels = 1 << 24
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

// jobSpec is a validated, normalized submission: the input (synthetic
// scene or decoded upload), the wire options (strategy canonicalised,
// mean radius resolved) and the corresponding parmcmc options.
type jobSpec struct {
	spec  api.OptionsSpec
	opt   parmcmc.Options
	scene *api.SceneSpec // synthetic input, pixels synthesized at run time
	input []byte         // raw uploaded bytes, spooled for crash recovery
	ext   string         // upload format: "png" or "pgm"
	pix   []float64      // decoded upload
	w, h  int
}

// decodeSubmit parses one POST /v1/jobs request — a JSON
// scene+options body, or a raw PNG/PGM upload with options in query
// parameters — into a validated jobSpec. All failures are typed 4xx
// apiErrors; arbitrary input must never panic.
func decodeSubmit(contentType string, body []byte, query url.Values) (*jobSpec, *apiError) {
	if isJSONSubmit(contentType, body) {
		return decodeJSONSubmit(body)
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

func decodeJSONSubmit(body []byte) (*jobSpec, *apiError) {
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
	opt, aerr := optionsFromSpec(&spec)
	if aerr != nil {
		return nil, aerr
	}
	return &jobSpec{spec: spec, opt: opt, scene: &sc}, nil
}

// decodeImageBytes sniffs and decodes a raw PNG/PGM body — shared by
// the upload handler and spool recovery (which re-decodes the stored
// bytes with the job's recorded options, never query parameters).
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
		pw, ph, aerr := pgmDims(body)
		if aerr != nil {
			return nil, 0, 0, "", aerr
		}
		if int64(pw)*int64(ph) > maxImagePixels {
			return nil, 0, 0, "", badRequest("PGM dimensions %dx%d exceed %d pixels", pw, ph, maxImagePixels)
		}
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

func decodeImageSubmit(contentType string, body []byte, query url.Values) (*jobSpec, *apiError) {
	pix, w, h, ext, aerr := decodeImageBytes(contentType, body)
	if aerr != nil {
		return nil, aerr
	}
	spec, aerr := optionsFromQuery(query)
	if aerr != nil {
		return nil, aerr
	}
	if spec.MeanRadius <= 0 {
		return nil, badRequest("image uploads require a positive mean_radius query parameter")
	}
	opt, aerr := optionsFromSpec(&spec)
	if aerr != nil {
		return nil, aerr
	}
	return &jobSpec{spec: spec, opt: opt, input: body, ext: ext, pix: pix, w: w, h: h}, nil
}

// isFinite rejects the float values JSON cannot express but query
// parameters can (strconv.ParseFloat accepts "NaN" and "Inf", which
// would sail through every ordered comparison below).
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

// pgmDims parses just the width/height tokens of a PGM header, so the
// size guard runs before ReadPGM allocates the raster.
func pgmDims(body []byte) (w, h int, _ *apiError) {
	toks := make([]string, 0, 3)
	i := 0
	for len(toks) < 3 && i < len(body) {
		switch c := body[i]; {
		case c == '#':
			for i < len(body) && body[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		default:
			j := i
			for j < len(body) {
				c := body[j]
				if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '#' {
					break
				}
				j++
			}
			toks = append(toks, string(body[i:j]))
			i = j
		}
	}
	if len(toks) < 3 {
		return 0, 0, badRequest("truncated PGM header")
	}
	// toks[0] is the magic; 1 and 2 are width and height.
	w, err := strconv.Atoi(toks[1])
	if err != nil {
		return 0, 0, badRequest("bad PGM width %q", toks[1])
	}
	h, err = strconv.Atoi(toks[2])
	if err != nil {
		return 0, 0, badRequest("bad PGM height %q", toks[2])
	}
	// Bounding each side keeps the caller's w*h product far from int
	// overflow (the fuzzer found exactly that hole: two huge dimensions
	// whose product wrapped negative and sailed past the pixel guard).
	if w <= 0 || h <= 0 || w > maxImagePixels || h > maxImagePixels {
		return 0, 0, badRequest("invalid PGM dimensions %dx%d", w, h)
	}
	return w, h, nil
}

// optionsFromQuery parses detection options from URL query parameters
// (the upload path's equivalent of the JSON "options" object). Keys
// match the JSON field names, plus the mcmcimg flag aliases radius,
// count and iters.
func optionsFromQuery(q url.Values) (api.OptionsSpec, *apiError) {
	var spec api.OptionsSpec
	var aerr *apiError
	getF := func(keys ...string) float64 {
		for _, k := range keys {
			if v := q.Get(k); v != "" {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil && aerr == nil {
					aerr = badRequest("bad query parameter %s=%q", k, v)
				}
				return f
			}
		}
		return 0
	}
	getI := func(keys ...string) int {
		for _, k := range keys {
			if v := q.Get(k); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil && aerr == nil {
					aerr = badRequest("bad query parameter %s=%q", k, v)
				}
				return n
			}
		}
		return 0
	}
	spec.Strategy = q.Get("strategy")
	spec.Shape = q.Get("shape")
	spec.MeanRadius = getF("mean_radius", "radius")
	spec.ExpectedCount = getF("expected_count", "count")
	spec.Threshold = getF("threshold")
	spec.Iterations = getI("iterations", "iters")
	spec.Workers = getI("workers")
	if v := q.Get("seed"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil && aerr == nil {
			aerr = badRequest("bad query parameter seed=%q", v)
		}
		spec.Seed = s
	}
	spec.LocalPhaseIters = getI("local_phase_iters")
	spec.PartitionGrid = getI("partition_grid")
	spec.SpecWidth = getI("spec_width")
	spec.LocalSpecWidth = getI("local_spec_width")
	spec.GridSlack = getF("grid_slack")
	if v := q.Get("converge"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil && aerr == nil {
			aerr = badRequest("bad query parameter converge=%q", v)
		}
		spec.Converge = b
	}
	spec.OverlapPenalty = getF("overlap_penalty")
	spec.Chains = getI("chains")
	spec.HeatStep = getF("heat_step")
	spec.SwapEvery = getI("swap_every")
	if aerr != nil {
		return api.OptionsSpec{}, aerr
	}
	return spec, nil
}

// optionsFromSpec validates an api.OptionsSpec and maps it onto
// parmcmc.Options, canonicalising the strategy name in place — the
// normalized spec is what the spool records, and re-applying this
// function to the record must reproduce the original Options exactly.
func optionsFromSpec(spec *api.OptionsSpec) (parmcmc.Options, *apiError) {
	if spec.Strategy == "" {
		spec.Strategy = parmcmc.Sequential.String()
	}
	strat, err := parmcmc.ParseStrategy(spec.Strategy)
	if err != nil {
		return parmcmc.Options{}, badRequest("unknown strategy %q", spec.Strategy)
	}
	spec.Strategy = strat.String()
	if spec.Shape == "" {
		spec.Shape = parmcmc.Discs.String()
	}
	shape, err := parmcmc.ParseShape(spec.Shape)
	if err != nil {
		return parmcmc.Options{}, badRequest("unknown shape %q", spec.Shape)
	}
	spec.Shape = shape.String()
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
	opt := parmcmc.Options{
		Strategy:        strat,
		Shape:           shape,
		MeanRadius:      spec.MeanRadius,
		ExpectedCount:   spec.ExpectedCount,
		Threshold:       spec.Threshold,
		Iterations:      spec.Iterations,
		Workers:         spec.Workers,
		Seed:            spec.Seed,
		LocalPhaseIters: spec.LocalPhaseIters,
		PartitionGrid:   spec.PartitionGrid,
		SpecWidth:       spec.SpecWidth,
		LocalSpecWidth:  spec.LocalSpecWidth,
		GridSlack:       spec.GridSlack,
		Converge:        spec.Converge,
		OverlapPenalty:  spec.OverlapPenalty,
		Chains:          spec.Chains,
		HeatStep:        spec.HeatStep,
		SwapEvery:       spec.SwapEvery,
	}
	if err := opt.Validate(); err != nil {
		// An *OptionError, whose message names the offending field.
		return parmcmc.Options{}, badRequest("%v", err)
	}
	return opt, nil
}
