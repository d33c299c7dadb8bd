package doccheck

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/api"
)

// The README's "Detection options" table is the documented option list
// of mcmcd jobs. This gate fails when an api.OptionsSpec JSON key is
// missing from the table or the table documents a key that is not one,
// and when a row names the wrong Options field or a query alias the
// upload decoder does not accept.

const optionsHeading = "\n### Detection options\n"

// optionRow is one row of the table: key, query alias ("—" for none)
// and Options field, with the backticks stripped.
type optionRow struct{ key, alias, field string }

// optionTable parses the table rows of the README's Detection options
// section.
func optionTable(readme string) []optionRow {
	_, section, _ := strings.Cut(readme, optionsHeading)
	var rows []optionRow
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| `") || len(cells) < 5 {
			continue
		}
		cell := func(i int) string { return strings.Trim(strings.TrimSpace(cells[i]), "`") }
		rows = append(rows, optionRow{key: cell(1), alias: cell(2), field: cell(3)})
	}
	return rows
}

// optionTableProblems checks the documented rows against
// api.OptionsSpec's fields and JSON tags.
func optionTableProblems(rows []optionRow) []string {
	var bad []string
	documented := make(map[string]optionRow)
	for _, r := range rows {
		documented[r.key] = r
	}
	keys := make(map[string]bool)
	spec := reflect.TypeOf(api.OptionsSpec{})
	for i := 0; i < spec.NumField(); i++ {
		f := spec.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		keys[key] = true
		r, ok := documented[key]
		switch {
		case !ok:
			bad = append(bad, "option "+key+" is missing from the README's Detection options table")
		case r.field != f.Name:
			bad = append(bad, fmt.Sprintf("option %s documents Options field %s, want %s", key, r.field, f.Name))
		case r.alias != "—" && !sameOption(key, r.alias):
			bad = append(bad, "option "+key+" documents query alias "+r.alias+", which does not set it")
		}
	}
	for _, r := range rows {
		if !keys[r.key] {
			bad = append(bad, "documented option "+r.key+" is not an api.OptionsSpec JSON key")
		}
	}
	return bad
}

// sameOption reports whether the query parameters key=1 and alias=1
// decode to the same non-zero spec.
func sameOption(key, alias string) bool {
	byKey, err1 := api.ParseOptionsQuery(url.Values{key: {"1"}})
	byAlias, err2 := api.ParseOptionsQuery(url.Values{alias: {"1"}})
	return err1 == nil && err2 == nil && byKey == byAlias && byAlias != api.OptionsSpec{}
}

func TestOptionTableMatchesOptionsSpec(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := optionTable(string(blob))
	if len(rows) == 0 {
		t.Fatal("README.md has no Detection options table")
	}
	for _, p := range optionTableProblems(rows) {
		t.Error(p)
	}
}

// TestOptionTableGateCatchesRot proves the option gate fires: a
// fabricated table built from the struct passes, and each kind of rot
// planted in it is reported.
func TestOptionTableGateCatchesRot(t *testing.T) {
	var healthy strings.Builder
	healthy.WriteString("intro" + optionsHeading + "\n| Key | Query alias | `Options` field | Default |\n|---|---|---|---|\n")
	spec := reflect.TypeOf(api.OptionsSpec{})
	for i := 0; i < spec.NumField(); i++ {
		key, _, _ := strings.Cut(spec.Field(i).Tag.Get("json"), ",")
		alias := map[string]string{"mean_radius": "`radius`"}[key]
		if alias == "" {
			alias = "—"
		}
		fmt.Fprintf(&healthy, "| `%s` | %s | `%s` | 0 |\n", key, alias, spec.Field(i).Name)
	}
	healthy.WriteString("\n## Next section\n\n| `not_an_option` | — | `Nope` | 0 |\n")
	if got := optionTableProblems(optionTable(healthy.String())); len(got) != 0 {
		t.Fatalf("healthy table flagged:\n%s", strings.Join(got, "\n"))
	}

	rotten := strings.NewReplacer(
		"| `swap_every` | — | `SwapEvery` | 0 |\n", "", // missing key
		"`chains` | — | `Chains`", "`chains` | — | `Chain`", // wrong field
		"`radius`", "`rad`", // alias the decoder does not know
	).Replace(healthy.String())
	rotten = strings.Replace(rotten, "|---|\n", "|---|\n| `retired_knob` | — | `RetiredKnob` | 0 |\n", 1) // not a key
	if got := optionTableProblems(optionTable(rotten)); len(got) != 4 {
		t.Fatalf("rotten table produced %d problems, want 4:\n%s", len(got), strings.Join(got, "\n"))
	}
}
