package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestDeterministicColumnsPinned pins the columns of the mc3, table1
// and fig4 tables that do not measure time, at quickOpts(). Each
// detection behind them is deterministic for its options and seed and
// independent of the worker count, so any drift means an experiment ran
// a job with different options or a different seed, or the code that
// runs the chains changed.
func TestDeterministicColumnsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six detections")
	}
	cases := []struct {
		id   string
		run  RunFunc
		cols []int // indices into the fields after the row label
		want map[string]string
	}{
		{"mc3", MC3, []int{0, 1, 2, 3, 4}, map[string]string{
			// logpost, found, TP, FN, F1
			"plain chain":       "13443.4021 6 6 0 1",
			"(MC)^3 cold chain": "13444.3632 6 6 0 1",
		}},
		{"table1", Table1, []int{4, 6}, map[string]string{
			// obj_thresh, iters_converge
			"whole": "50.175 25000",
			"B":     "38.7716 20160",
			"A":     "6.1042 6363",
			"C":     "4.2126 2961",
			"D":     "1.0867 1512",
		}},
		{"fig4", Fig4, []int{0, 1}, map[string]string{
			// obj_thresh, iters_converge
			"top-left":     "16.5953 10584",
			"top-right":    "12.8255 4977",
			"bottom-left":  "8.5056 6993",
			"bottom-right": "23.8801 12033",
		}},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			res, err := c.run(context.Background(), quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			for label, want := range c.want {
				row := tableRow(res.Body, label)
				if row == nil {
					t.Errorf("no %q row in:\n%s", label, res.Body)
					continue
				}
				var got []string
				for _, i := range c.cols {
					if i < len(row) {
						got = append(got, row[i])
					}
				}
				if g := strings.Join(got, " "); g != want {
					t.Errorf("%s row = %q, want %q", label, g, want)
				}
			}
		})
	}
}

// tableRow returns the fields after label on the first line of a
// rendered table that starts with that label, or nil.
func tableRow(body, label string) []string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, label+" "); ok {
			return strings.Fields(rest)
		}
	}
	return nil
}
