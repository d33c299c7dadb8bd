package api

import (
	"math"
	"net/url"
	"reflect"
	"testing"
)

// TestOptionsQueryRoundTrip is the drift guard for the upload query
// codec: every OptionsSpec field survives OptionsQuery →
// ParseOptionsQuery, the aliases parse, and a JSON name beats its alias.
func TestOptionsQueryRoundTrip(t *testing.T) {
	var want OptionsSpec
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(map[string]string{"Strategy": "periodic+spec", "Shape": "ellipse"}[v.Type().Field(i).Name])
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(math.MaxUint64)
		case reflect.Float64:
			f.SetFloat(math.Nextafter(float64(i)+0.3, math.Inf(1))) // 16–17 digits
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("OptionsSpec.%s: kind %v not covered by this test", v.Type().Field(i).Name, f.Kind())
		}
		if v.Field(i).IsZero() {
			t.Fatalf("OptionsSpec.%s left zero", v.Type().Field(i).Name)
		}
	}
	q := OptionsQuery(want)
	if len(q) != v.NumField() {
		t.Fatalf("encoded %d parameters for %d fields: %v", len(q), v.NumField(), q)
	}
	back, err := url.ParseQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseOptionsQuery(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
	if q := OptionsQuery(OptionsSpec{}); len(q) != 0 {
		t.Fatalf("zero spec encoded as %v", q)
	}
	// The encoding itself: zeros (-0 included) omitted, floats in
	// strconv's shortest 'g' form.
	pinned := OptionsQuery(OptionsSpec{
		Strategy: "mc3", MeanRadius: 1e21, Threshold: math.Copysign(0, -1),
		GridSlack: math.Nextafter(0.3, 1), Seed: math.MaxUint64, Converge: true, Chains: -2,
	}).Encode()
	if want := "chains=-2&converge=true&grid_slack=0.30000000000000004&mean_radius=1e%2B21&seed=18446744073709551615&strategy=mc3"; pinned != want {
		t.Fatalf("encoded %s, want %s", pinned, want)
	}

	for query, want := range map[string]OptionsSpec{
		"radius=4&count=7&iters=900":             {MeanRadius: 4, ExpectedCount: 7, Iterations: 900},
		"mean_radius=3&radius=4":                 {MeanRadius: 3},
		"mean_radius=&radius=4&threshold=NaN":    {MeanRadius: 4, Threshold: math.NaN()},
		"seed=18446744073709551615&converge=1&x": {Seed: math.MaxUint64, Converge: true},
	} {
		vals, _ := url.ParseQuery(query)
		got, err := ParseOptionsQuery(vals)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if !reflect.DeepEqual(OptionsQuery(got), OptionsQuery(want)) {
			t.Fatalf("%s parsed as %+v, want %+v", query, got, want)
		}
	}
}

// The first malformed parameter in field order is the error, named by
// the key the caller actually sent.
func TestParseOptionsQueryErrors(t *testing.T) {
	for query, want := range map[string]string{
		"radius=abc":                  `bad query parameter radius="abc"`,
		"mean_radius=abc&radius=4":    `bad query parameter mean_radius="abc"`,
		"swap_every=x&iters=y&seed=z": `bad query parameter iters="y"`,
		"seed=-1":                     `bad query parameter seed="-1"`,
		"converge=maybe":              `bad query parameter converge="maybe"`,
		"workers=1.5":                 `bad query parameter workers="1.5"`,
	} {
		vals, _ := url.ParseQuery(query)
		spec, err := ParseOptionsQuery(vals)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: error %v, want %q", query, err, want)
		}
		if spec != (OptionsSpec{}) {
			t.Fatalf("%s: error returned with spec %+v", query, spec)
		}
	}
}
