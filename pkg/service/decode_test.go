package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/imaging"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

func mustScenePGM(t *testing.T) []byte {
	t.Helper()
	pix, _ := parmcmc.GenerateScene(parmcmc.SceneSpec{W: 32, H: 32, Count: 2, MeanRadius: 4, Seed: 1})
	var buf bytes.Buffer
	if err := (&imaging.Image{W: 32, H: 32, Pix: pix}).WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeSubmitJSON(t *testing.T) {
	body, _ := json.Marshal(api.JobSpec{
		Scene:   &api.SceneSpec{W: 64, H: 48, Count: 3, MeanRadius: 5, Seed: 2},
		Options: api.OptionsSpec{Iterations: 1000, Seed: 7},
	})
	rec, input, aerr := decodeSubmit("application/json", body, nil)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if rec.Scene == nil || rec.Scene.W != 64 {
		t.Fatalf("scene %+v", rec.Scene)
	}
	// mean_radius defaults from the scene; strategy canonicalises.
	if rec.Options.MeanRadius != 5 || rec.Options.Strategy != "sequential" {
		t.Fatalf("normalized options %+v", rec.Options)
	}
	_, _, _, opt, err := materialize(*rec, input)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MeanRadius != 5 || opt.Seed != 7 || opt.Iterations != 1000 {
		t.Fatalf("options %+v", opt)
	}

	// Content sniffing: a JSON body with no content type still decodes.
	if _, _, aerr := decodeSubmit("", body, nil); aerr != nil {
		t.Fatal(aerr)
	}
}

func TestDecodeSubmitErrors(t *testing.T) {
	pgm := mustScenePGM(t)
	cases := []struct {
		name   string
		ct     string
		body   string
		query  string
		status int
		field  string // when set, the message must name this option
		msg    string // when set, the exact message
	}{
		{"empty body", "", "", "", http.StatusUnsupportedMediaType, "", ""},
		{"bad json", "application/json", "{", "", http.StatusBadRequest, "", ""},
		{"unknown json field", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"bogus":1}`, "", http.StatusBadRequest, "", ""},
		{"trailing data", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5}} {"x":1}`, "", http.StatusBadRequest, "", ""},
		{"missing scene", "application/json", `{"options":{"mean_radius":5}}`, "", http.StatusBadRequest, "", ""},
		{"zero scene dims", "application/json", `{"scene":{"w":0,"h":64,"count":1,"mean_radius":5}}`, "", http.StatusBadRequest, "", ""},
		{"huge scene", "application/json", `{"scene":{"w":100000,"h":100000,"count":1,"mean_radius":5}}`, "", http.StatusBadRequest, "", ""},
		{"negative count", "application/json", `{"scene":{"w":64,"h":64,"count":-1,"mean_radius":5}}`, "", http.StatusBadRequest, "", ""},
		{"no radius", "application/json", `{"scene":{"w":64,"h":64,"count":1}}`, "", http.StatusBadRequest, "", ""},
		{"bad strategy", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"strategy":"warp"}}`, "", http.StatusBadRequest, "", `unknown strategy "warp"`},
		{"negative iterations", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"iterations":-5}}`, "", http.StatusBadRequest, "Iterations", ""},
		{"huge iterations", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"iterations":2000000000}}`, "", http.StatusBadRequest, "", ""},
		{"noise out of range", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5,"noise":2}}`, "", http.StatusBadRequest, "", ""},
		{"garbage bytes", "application/x-thing", "\x00\x01\x02", "", http.StatusUnsupportedMediaType, "", ""},
		{"truncated png", "image/png", "\x89PNG\r\n\x1a\n\x00\x00", "radius=5", http.StatusBadRequest, "", ""},
		{"pgm bomb header", "", "P5 1000000000 1000000000 255\n", "radius=5", http.StatusBadRequest, "", ""},
		{"pgm truncated header", "", "P5 10", "radius=5", http.StatusBadRequest, "", ""},
		{"pgm bad tokens", "", "P5 x y 255\n", "radius=5", http.StatusBadRequest, "", ""},
		{"pgm truncated raster", "", "P5 8 8 255\nxx", "radius=5", http.StatusBadRequest, "", ""},
		{"upload without radius", "", string(pgm), "", http.StatusBadRequest, "", ""},
		{"upload bad query", "", string(pgm), "radius=abc", http.StatusBadRequest, "", `bad query parameter radius="abc"`},
		{"upload NaN radius", "", string(pgm), "radius=NaN", http.StatusBadRequest, "", ""},
		{"upload Inf radius", "", string(pgm), "radius=Inf", http.StatusBadRequest, "MeanRadius", ""},
		{"upload NaN threshold", "", string(pgm), "radius=5&threshold=nan", http.StatusBadRequest, "Threshold", ""},
		{"upload -Inf slack", "", string(pgm), "radius=5&grid_slack=-Inf", http.StatusBadRequest, "GridSlack", ""},
		{"upload bad seed", "", string(pgm), "radius=5&seed=-1", http.StatusBadRequest, "", `bad query parameter seed="-1"`},
		{"upload bad converge", "", string(pgm), "radius=5&converge=maybe", http.StatusBadRequest, "", `bad query parameter converge="maybe"`},
		{"upload bad strategy", "", string(pgm), "radius=5&strategy=warp", http.StatusBadRequest, "", `unknown strategy "warp"`},
		{"bad scene shape", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5,"shape":"hexagon"}}`, "", http.StatusBadRequest, "", ""},
		{"bad options shape", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"shape":"square"}}`, "", http.StatusBadRequest, "", `unknown shape "square"`},
		{"axis ratio out of range", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5,"shape":"ellipse","axis_ratio":1.5}}`, "", http.StatusBadRequest, "", ""},
		{"axis ratio without ellipse", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5,"axis_ratio":0.7}}`, "", http.StatusBadRequest, "", ""},
		{"upload bad shape", "", string(pgm), "radius=5&shape=blob", http.StatusBadRequest, "", `unknown shape "blob"`},
		{"threshold above 1", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"threshold":2}}`, "", http.StatusBadRequest, "Threshold", ""},
		{"negative heat step", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"heat_step":-1}}`, "", http.StatusBadRequest, "HeatStep", ""},
		{"negative expected count", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"expected_count":-3}}`, "", http.StatusBadRequest, "ExpectedCount", ""},
		{"negative swap every", "application/json", `{"scene":{"w":64,"h":64,"count":1,"mean_radius":5},"options":{"swap_every":-1}}`, "", http.StatusBadRequest, "SwapEvery", ""},
		{"upload negative heat step", "", string(pgm), "radius=5&heat_step=-1", http.StatusBadRequest, "HeatStep", ""},
		{"upload NaN slack", "", string(pgm), "radius=5&grid_slack=NaN", http.StatusBadRequest, "GridSlack", ""},
		{"upload Inf overlap", "", string(pgm), "radius=5&overlap_penalty=Inf", http.StatusBadRequest, "OverlapPenalty", ""},
		{"upload -Inf threshold", "", string(pgm), "radius=5&threshold=-Inf", http.StatusBadRequest, "Threshold", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			rec, _, aerr := decodeSubmit(tc.ct, []byte(tc.body), q)
			if aerr == nil {
				t.Fatalf("accepted: %+v", rec)
			}
			if aerr.status != tc.status {
				t.Fatalf("status %d (%s), want %d", aerr.status, aerr.msg, tc.status)
			}
			if aerr.Error() == "" {
				t.Fatal("empty error message")
			}
			if !strings.Contains(aerr.msg, tc.field) {
				t.Fatalf("message %q does not name %s", aerr.msg, tc.field)
			}
			if tc.msg != "" && aerr.msg != tc.msg {
				t.Fatalf("message %q, want %q", aerr.msg, tc.msg)
			}
		})
	}
}

func TestDecodeUploadQueryOptions(t *testing.T) {
	pgm := mustScenePGM(t)
	q, _ := url.ParseQuery("radius=4&strategy=mc3&iters=5000&seed=11&chains=3&heat_step=0.2&swap_every=100&workers=2&converge=false&threshold=0.4")
	rec, input, aerr := decodeSubmit("", pgm, q)
	if aerr != nil {
		t.Fatal(aerr)
	}
	pix, w, h, opt, err := materialize(*rec, input)
	if err != nil {
		t.Fatal(err)
	}
	if w != 32 || h != 32 || len(pix) != 32*32 {
		t.Fatalf("decoded %dx%d, %d pix", w, h, len(pix))
	}
	want := parmcmc.Options{
		Strategy: parmcmc.Tempered, MeanRadius: 4, Threshold: 0.4,
		Iterations: 5000, Workers: 2, Seed: 11,
		Chains: 3, HeatStep: 0.2, SwapEvery: 100,
	}
	if !reflect.DeepEqual(opt, want) {
		t.Fatalf("options %+v, want %+v", opt, want)
	}
	if rec.Input != "input.pgm" {
		t.Fatalf("input %q", rec.Input)
	}
}

// The options round trip the spool depends on: normalize → record →
// optionsFromSpec must reproduce identical parmcmc.Options.
func TestOptionsSpecRoundTrip(t *testing.T) {
	spec := api.OptionsSpec{
		Strategy: "periodic+spec", MeanRadius: 6.5, ExpectedCount: 12,
		Threshold: 0.4, Iterations: 9000, Workers: 3, Seed: 77,
		LocalPhaseIters: 250, PartitionGrid: 3, SpecWidth: 5,
		LocalSpecWidth: 2, GridSlack: 1.0, Converge: true,
		OverlapPenalty: 0.7, Chains: 4, HeatStep: 0.25, SwapEvery: 150,
	}
	opt1, aerr := optionsFromSpec(&spec)
	if aerr != nil {
		t.Fatal(aerr)
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back api.OptionsSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	opt2, aerr := optionsFromSpec(&back)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(opt1, opt2) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", opt1, opt2)
	}
}

// TestDecodeEllipseSubmit pins the accepted ellipse path: scene shape
// canonicalised, detection shape defaulted from the scene, axis ratio
// carried through.
func TestDecodeEllipseSubmit(t *testing.T) {
	body := `{"scene":{"w":96,"h":96,"count":4,"mean_radius":6,"shape":"ellipse","axis_ratio":0.6}}`
	rec, input, aerr := decodeSubmit("application/json", []byte(body), nil)
	if aerr != nil {
		t.Fatalf("rejected: %v", aerr)
	}
	if rec.Scene.Shape != parmcmc.Ellipses.String() {
		t.Fatalf("scene shape %q", rec.Scene.Shape)
	}
	if rec.Options.Shape != parmcmc.Ellipses.String() {
		t.Fatalf("options shape %q (want defaulted from scene)", rec.Options.Shape)
	}
	_, _, _, opt, err := materialize(*rec, input)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Shape != parmcmc.Ellipses {
		t.Fatalf("parmcmc shape %v", opt.Shape)
	}
	ps, err := rec.Scene.ToParmcmc()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Shape != parmcmc.Ellipses || ps.AxisRatio != 0.6 {
		t.Fatalf("scene mapping %+v", ps)
	}
	// Upload path: shape from query.
	pgm := mustScenePGM(t)
	q, _ := url.ParseQuery("radius=5&shape=ellipse")
	up, upInput, aerr := decodeSubmit("", pgm, q)
	if aerr != nil {
		t.Fatalf("upload rejected: %v", aerr)
	}
	_, _, _, upOpt, err := materialize(*up, upInput)
	if err != nil {
		t.Fatal(err)
	}
	if upOpt.Shape != parmcmc.Ellipses {
		t.Fatalf("upload shape %v", upOpt.Shape)
	}
}
