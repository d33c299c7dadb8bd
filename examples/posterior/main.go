// Posterior: the §I promise of MCMC over greedy segmentation —
// "identifying similar but distinct solutions and giving the relative
// probabilities of these different interpretations". Past burn-in the
// example runs the sequential chain in slices of RunN(50) and samples it
// between slices, counting per-pixel coverage and the artifact count,
// to produce a per-pixel coverage-probability map and the posterior
// distribution of the artifact count.
//
//	go run ./examples/posterior [output-dir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
)

func main() {
	log.SetFlags(0)
	outDir := "."
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}

	// A scene with one deliberately ambiguous overlapping pair: the
	// posterior holds real mass on both the 6- and 7-artifact
	// interpretations.
	im := imaging.New(192, 192)
	im.Fill(0.1)
	truth := []struct{ x, y, r float64 }{
		{40, 40, 9}, {140, 36, 9}, {40, 140, 9}, {150, 150, 9}, {96, 100, 9},
		// the ambiguous pair: two heavily overlapping discs that a single
		// larger disc explains almost as well
		{93, 40, 7.5}, {99, 40, 7.5},
	}
	for _, c := range truth {
		imaging.RenderShape(im, geom.Disc(c.x, c.y, c.r), 0.55)
	}
	// A barely-above-threshold artifact whose very existence the
	// posterior should be uncertain about.
	faint := geom.Disc(150, 90, 8)
	imaging.RenderShape(im, faint, 0.34)
	noise := rng.New(12)
	for i := range im.Pix {
		im.Pix[i] += noise.NormalAt(0, 0.12)
	}
	im.Clamp()

	params := model.DefaultParams(float64(len(truth)), 9)
	params.OverlapPenalty = 0.2
	params.Foreground = 0.55
	params.Noise = 0.2 // low SNR: interpretations stay genuinely uncertain
	state, err := model.NewState(im, params)
	if err != nil {
		log.Fatal(err)
	}
	engine := mcmc.MustNew(state, rng.New(13), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(9))

	// Burn in, then sample the chain every `every` iterations: the
	// coverage of each pixel and the artifact count.
	engine.RunN(40000)
	const every, samples = 50, 4000
	hits := make([]int, len(im.Pix))
	var countHits []int // countHits[n]: samples holding n artifacts
	for i := 0; i < samples; i++ {
		engine.RunN(every)
		for j, c := range state.Cover {
			if c > 0 {
				hits[j]++
			}
		}
		n := state.Cfg.Len()
		for len(countHits) <= n {
			countHits = append(countHits, 0)
		}
		countHits[n]++
	}

	fmt.Printf("posterior over artifact count (%d samples):\n", samples)
	mapN, mapP := 0, 0.0
	for n, h := range countHits {
		if h == 0 {
			continue
		}
		p := float64(h) / samples
		fmt.Printf("  n=%2d  %.3f  %s\n", n, p, strings.Repeat("#", int(p*60)))
		if p > mapP {
			mapN, mapP = n, p
		}
	}
	fmt.Printf("MAP count: %d (probability %.2f); ground truth: %d solid + 1 faint\n",
		mapN, mapP, len(truth))

	pm := imaging.New(im.W, im.H)
	for j, h := range hits {
		pm.Pix[j] = float64(h) / samples
	}

	// Posterior existence probability of the faint artifact: the mean
	// coverage probability over its disc.
	sum, npx := 0.0, 0
	for y := int(faint.Y - faint.Rx); y <= int(faint.Y+faint.Rx); y++ {
		for x := int(faint.X - faint.Rx); x <= int(faint.X+faint.Rx); x++ {
			if faint.Contains(float64(x)+0.5, float64(y)+0.5) {
				sum += pm.At(x, y)
				npx++
			}
		}
	}
	fmt.Printf("P(faint artifact region covered) = %.2f — a greedy detector would answer 0 or 1\n",
		sum/float64(npx))
	uncertain := 0
	for _, v := range pm.Pix {
		if v > 0.2 && v < 0.8 {
			uncertain++
		}
	}
	fmt.Printf("pixels with genuinely uncertain coverage (0.2<p<0.8): %d\n", uncertain)

	pmPath := filepath.Join(outDir, "posterior_map.png")
	f, err := os.Create(pmPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := pm.WritePNG(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote per-pixel coverage-probability map to %s\n", pmPath)
}
