// Beads: the §IX experiment in miniature — a clumped latex-bead image is
// processed three ways (sequential, intelligent partitioning, blind
// partitioning) and the runtimes and detection quality are compared side
// by side, reproducing the paper's conclusion that blind partitioning
// wins on clumped data while intelligent partitioning is limited by its
// largest partition.
//
//	go run ./examples/beads
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

func main() {
	log.SetFlags(0)
	// Three clumps of beads, like fig. 3.
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 420, H: 320, Count: 36, Clusters: 3, ClusterSpread: 2.0,
		MeanRadius: 9, RadiusStdDev: 0.3, Noise: 0.04, MinSeparation: 1.02,
	}, rng.New(3))
	meanR := 9.0
	workers := runtime.GOMAXPROCS(0)

	detect := func(opt parmcmc.Options) *parmcmc.Result {
		opt.MeanRadius = meanR
		opt.Iterations = 80000
		opt.Seed = 2024
		opt.Workers = workers
		res, err := parmcmc.Detect(scene.Image.Pix, scene.Image.W, scene.Image.H, opt)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	seq := detect(parmcmc.Options{Strategy: parmcmc.Sequential, Converge: true})
	intel := detect(parmcmc.Options{Strategy: parmcmc.Intelligent})
	blind := detect(parmcmc.Options{Strategy: parmcmc.Blind})

	tb := &trace.Table{Header: []string{
		"method", "partitions", "runtime_s", "rel_runtime", "found", "F1", "dup_pairs",
	}}
	seqTime := seq.Regions[0].Seconds
	for _, row := range []struct {
		name string
		res  *parmcmc.Result
	}{{"sequential", seq}, {"intelligent", intel}, {"blind 2x2", blind}} {
		secs := makespan(row.res.Regions, workers)
		found := make([]geom.Ellipse, len(row.res.Circles))
		for i, c := range row.res.Circles {
			found[i] = geom.Disc(c.X, c.Y, c.R)
		}
		m := stats.MatchCircles(found, scene.Truth, meanR/2)
		tb.Add(row.name, len(row.res.Regions), secs, secs/seqTime,
			len(found), m.F1(), stats.DuplicatePairs(found, meanR/2))
	}
	if err := tb.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nblind merge: %d cross-partition pairs averaged, %d disputed artifacts\n",
		blind.Merged, blind.Disputed)
	fmt.Printf("ground truth: %d beads in 3 clusters\n", len(scene.Truth))
}

// makespan is the paper's runtime of a partitioned run on p processors:
// "the longest time taken to process any of the partitions" when
// processors suffice, with LPT load balancing otherwise (§IX).
func makespan(regions []parmcmc.RegionInfo, p int) float64 {
	costs := make([]float64, len(regions))
	for i, r := range regions {
		costs[i] = r.Seconds
	}
	return sched.Makespan(costs, sched.LPTAssign(costs, p))
}
