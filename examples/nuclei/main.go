// Nuclei: the §III case study end-to-end — filter an image to emphasise
// the stain colour, then run one parmcmc.Detect call with periodic
// partitioning and speculative global phases (eqs. 2–3 composed), watch
// the posterior trace converge through the run's Observer, and write a
// detection overlay PNG.
//
//	go run ./examples/nuclei [output-dir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/pkg/parmcmc"
)

func main() {
	log.SetFlags(0)
	outDir := "."
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}

	// A synthetic stained-tissue image: 100 nuclei of radius ~10 on a
	// 512x512 frame (a quarter of the paper's §VII workload).
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 512, H: 512, Count: 100, MeanRadius: 10, RadiusStdDev: 1.2,
		Noise: 0.08, MinSeparation: 1.05,
	}, rng.New(7))

	// §III: "first the input image is filtered to emphasise the colour
	// of interest". Our grayscale equivalent boosts intensities near the
	// nucleus stain level.
	filtered := scene.Image.Emphasize(0.9, 0.25)

	// eq. 5 supplies the count prior from the filtered image itself.
	lambda := filtered.EstimateCount(0.5, 10)
	fmt.Printf("eq.5 estimates %.1f nuclei (truth: %d)\n", lambda, len(scene.Truth))

	const traceEvery = 40000
	fmt.Printf("\nposterior trace (every %d iterations):\n", traceEvery)
	next := int64(0)
	res, err := parmcmc.Detect(filtered.Pix, filtered.W, filtered.H, parmcmc.Options{
		Strategy:        parmcmc.PeriodicSpeculative,
		MeanRadius:      10,
		ExpectedCount:   lambda,
		Iterations:      400000,
		LocalPhaseIters: 600,
		PartitionGrid:   2, // ~2x2 cells with random offsets
		SpecWidth:       4, // speculative global phases (eq. 3)
		Seed:            99,
		Observer: func(p parmcmc.Progress) {
			if p.Iter < next {
				return
			}
			fmt.Printf("  iter %8d  logpost %12.1f  count %d\n", p.Iter, p.LogPost, p.NumCircles)
			for next <= p.Iter {
				next += traceEvery
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	found := make([]geom.Ellipse, len(res.Circles))
	for i, c := range res.Circles {
		found[i] = geom.Disc(c.X, c.Y, c.R)
	}
	m := stats.MatchCircles(found, scene.Truth, 5)
	fmt.Printf("\nfound %d nuclei: precision %.3f, recall %.3f, F1 %.3f\n",
		len(found), m.Precision(), m.Recall(), m.F1())
	fmt.Printf("rejection rates: global %.2f, local %.2f\n", res.GlobalRejectRate, res.LocalRejectRate)
	fmt.Printf("phase time: global %.3fs, local %.3fs over %d fork/join cycles\n",
		res.GlobalSeconds, res.LocalSeconds, res.Barriers)

	overlay := filepath.Join(outDir, "nuclei_overlay.png")
	f, err := os.Create(overlay)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := scene.Image.WriteOverlayPNG(f, found); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", overlay)
}
