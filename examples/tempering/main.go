// Tempering: the §IV related-work method, (MC)³, on a deliberately
// multimodal scene. Pairs of strongly overlapping discs admit two
// interpretations — "one big artifact" or "two overlapping artifacts" —
// and a plain chain that commits to the wrong one early can stay stuck.
// Heated chains cross between the modes freely and hand better states to
// the cold chain through swaps. The example runs the scene through
// parmcmc.Detect twice — Sequential, then Tempered — and compares the
// plain chain with the (MC)³ cold chain.
//
//	go run ./examples/tempering
package main

import (
	"fmt"
	"log"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/pkg/parmcmc"
)

func main() {
	log.SetFlags(0)

	// Build the ambiguous scene: 5 overlapping pairs.
	im := imaging.New(256, 256)
	im.Fill(0.1)
	r := rng.New(3)
	var truth []geom.Ellipse
	const meanR = 8.0
	for len(truth) < 10 {
		cx, cy := r.Uniform(40, 216), r.Uniform(40, 216)
		clear := true
		for _, p := range truth {
			if (geom.Ellipse{X: cx, Y: cy}).Dist(p) < 5*meanR {
				clear = false
				break
			}
		}
		if !clear {
			continue
		}
		truth = append(truth,
			geom.Disc(cx-0.55*meanR, cy, meanR),
			geom.Disc(cx+0.55*meanR, cy, meanR))
	}
	for _, c := range truth {
		imaging.RenderShape(im, c, 0.9)
	}
	noise := rng.New(4)
	for i := range im.Pix {
		im.Pix[i] += noise.NormalAt(0, 0.04)
	}
	im.Clamp()

	detect := func(strategy parmcmc.Strategy, seed uint64) *parmcmc.Result {
		res, err := parmcmc.Detect(im.Pix, im.W, im.H, parmcmc.Options{
			Strategy:       strategy,
			MeanRadius:     meanR,
			ExpectedCount:  float64(len(truth)),
			OverlapPenalty: 0.15,
			Iterations:     100000,
			Seed:           seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	plain := detect(parmcmc.Sequential, 21)
	tempered := detect(parmcmc.Tempered, 22) // 4 chains by default

	fmt.Printf("scene: %d artifacts arranged as %d overlapping pairs\n\n", len(truth), len(truth)/2)
	for _, row := range []struct {
		name string
		res  *parmcmc.Result
	}{{"plain chain:", plain}, {"(MC)^3 cold:", tempered}} {
		found := make([]geom.Ellipse, len(row.res.Circles))
		for i, c := range row.res.Circles {
			found[i] = geom.Disc(c.X, c.Y, c.R)
		}
		m := stats.MatchCircles(found, truth, meanR*0.6)
		fmt.Printf("%-17s logpost %10.1f  found %2d  TP %2d  F1 %.3f\n",
			row.name, row.res.LogPost, len(found), m.TP, m.F1())
	}
	fmt.Printf("\nswap rate: %.2f over %d chains\n", tempered.SwapRate, tempered.Partitions)
	fmt.Println("\nnote: (MC)^3 spends processors on convergence rate; periodic")
	fmt.Println("partitioning spends them on workload — the methods compose.")
}
