package experiments

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Fig1 regenerates fig. 1: the eq. 2 prediction of runtime (as a
// fraction of sequential) versus the global move proposal probability
// q_g, for 2, 4, 8 and 16 processes with τ_g = τ_l. The series are
// closed-form, so the figure runs no chain.
func Fig1(context.Context, Options) (*Result, error) {
	qgs := make([]float64, 0, 21)
	for q := 0.0; q <= 1.0001; q += 0.05 {
		qgs = append(qgs, q)
	}
	series := map[int][]float64{}
	for _, s := range []int{2, 4, 8, 16} {
		series[s] = core.Fig1Series(s, qgs)
	}
	tb := &trace.Table{Header: []string{"qg", "s=2", "s=4", "s=8", "s=16"}}
	for i, qg := range qgs {
		tb.Add(qg, series[2][i], series[4][i], series[8][i], series[16][i])
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		return nil, err
	}
	return &Result{
		ID:    "fig1",
		Title: "Predicted runtime fraction vs q_g (eq. 2, τ_g = τ_l)",
		Body:  sb.String(),
		Notes: []string{
			"paper shape: curves start at 1/s for q_g=0, converge to 1 at q_g=1;",
			"global moves are the limiting factor exactly as Amdahl's law dictates.",
		},
	}, nil
}
