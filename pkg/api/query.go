package api

import (
	"fmt"
	"net/url"
	"reflect"
	"strconv"
	"strings"
)

// queryAliases are the mcmcimg flag names the upload query string
// accepts besides the JSON names, keyed by the JSON name. The JSON name
// wins when both are given.
var queryAliases = map[string]string{"mean_radius": "radius", "expected_count": "count", "iterations": "iters"}

// OptionsQuery encodes spec as upload query parameters keyed by the
// JSON names, omitting zero fields as the JSON form does. Values print
// with fmt.Sprint, whose float form is strconv's shortest 'g': it
// parses back to the same value.
func OptionsQuery(spec OptionsSpec) url.Values {
	q := url.Values{}
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		// Compared with ==, so -0 is omitted like 0, and NaN is kept.
		if x := v.Field(i).Interface(); x != reflect.Zero(v.Field(i).Type()).Interface() {
			key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			q.Set(key, fmt.Sprint(x))
		}
	}
	return q
}

// ParseOptionsQuery decodes upload query parameters into an
// OptionsSpec: the inverse of OptionsQuery, plus the aliases radius,
// count and iters. Empty parameters count as absent. Values parse with
// strconv, so NaN and Inf are accepted here and left to
// parmcmc.Options.Validate to reject. The first malformed parameter,
// in field order, is the error.
func ParseOptionsQuery(q url.Values) (OptionsSpec, error) {
	var spec OptionsSpec
	v := reflect.ValueOf(&spec).Elem()
	for i := 0; i < v.NumField(); i++ {
		key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		raw := q.Get(key)
		if alias := queryAliases[key]; raw == "" && alias != "" {
			key, raw = alias, q.Get(alias)
		}
		if raw == "" {
			continue
		}
		var x any = raw
		var err error
		switch v.Field(i).Kind() {
		case reflect.Float64:
			x, err = strconv.ParseFloat(raw, 64)
		case reflect.Int:
			x, err = strconv.Atoi(raw)
		case reflect.Uint64:
			x, err = strconv.ParseUint(raw, 10, 64)
		case reflect.Bool:
			x, err = strconv.ParseBool(raw)
		}
		if err != nil {
			return OptionsSpec{}, fmt.Errorf("bad query parameter %s=%q", key, raw)
		}
		v.Field(i).Set(reflect.ValueOf(x))
	}
	return spec, nil
}
