// Command mcmcimg detects circular artifacts in PGM images using any of
// the parallelisation strategies of the paper. It prints the detections
// as CSV and, with -overlay, writes a PNG with the detections outlined.
//
// Usage:
//
//	mcmcimg -in cells.pgm -radius 10 [-strategy periodic] [-iters 200000]
//	        [-count 150] [-workers 4] [-seed 1] [-overlay out.png]
//	        [-progress] [-checkpoint run.ckpt [-checkpoint-every 25000]]
//	mcmcimg -in cells.pgm -radius 10 -resume run.ckpt
//
// Both -in and -strategy accept comma-separated lists; every image ×
// strategy combination becomes one parmcmc.DetectContext job, -parallel
// of which run concurrently (0 = GOMAXPROCS). Batches of more than one
// job print a "# job: <name>" line before each CSV block, in input-major
// order whatever the concurrency, and ctrl-C cancels outstanding jobs
// at their next checkpoint. Every job runs with -seed; -seed 0 means
// Detect's default seed.
//
// -progress streams per-job progress lines to stderr. -checkpoint
// (single-job runs only) writes a resumable snapshot atomically every
// -checkpoint-every iterations; after an interruption, -resume continues
// the run from the file — chain-affecting options come from the
// checkpoint, and the final result is bit-identical to an uninterrupted
// run.
//
// Inputs are PGM (P5 or P2) images of at most imaging.MaxPixels (2^24)
// pixels; a larger header is refused before any allocation.
//
// Strategies: sequential, periodic, periodic+spec, intelligent, blind, mc3.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/sched"
	"repro/pkg/parmcmc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcmcimg: ")
	var (
		in         = flag.String("in", "", fmt.Sprintf("input PGM image(s) of at most %d pixels each, comma-separated (required)", imaging.MaxPixels))
		radius     = flag.Float64("radius", 0, "expected artifact radius in pixels (required)")
		strategy   = flag.String("strategy", "periodic", "detection strategy or comma-separated list")
		shape      = flag.String("shape", "disc", "artifact shape family: disc or ellipse")
		iters      = flag.Int("iters", 200000, "chain iterations (cap for partitioned strategies)")
		count      = flag.Float64("count", 0, "expected artifact count (0 = estimate via eq. 5)")
		workers    = flag.Int("workers", 0, "worker goroutines per job (0 = GOMAXPROCS)")
		parallel   = flag.Int("parallel", 1, "concurrent jobs in a batch (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		overlay    = flag.String("overlay", "", "optional PNG path for a detection overlay (single-job runs only)")
		progress   = flag.Bool("progress", false, "stream progress lines to stderr")
		checkpoint = flag.String("checkpoint", "", "write periodic resumable checkpoints to this file (single-job runs only)")
		ckptEvery  = flag.Int("checkpoint-every", 25000, "approximate iterations between checkpoints")
		resume     = flag.String("resume", "", "resume from a -checkpoint file (single image; strategy and chain options come from the checkpoint)")
		profiles   = cliutil.AddProfileFlags(nil)
	)
	flag.Parse()
	if *in == "" || *radius <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	// log.Fatal's os.Exit would skip the deferred flush and lose any
	// profile of the work already done; fail through fatalf instead.
	fatalf := func(format string, args ...any) {
		log.Printf(format, args...)
		stopProf()
		os.Exit(1)
	}

	shapeKind, err := parmcmc.ParseShape(*shape)
	if err != nil {
		fatalf("%v (known shapes: disc, ellipse)", err)
	}

	var strategies []parmcmc.Strategy
	for _, name := range strings.Split(*strategy, ",") {
		strat, err := parmcmc.ParseStrategy(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		strategies = append(strategies, strat)
	}

	type input struct {
		path string
		img  *imaging.Image
	}
	var inputs []input
	for _, path := range strings.Split(*in, ",") {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		img, err := imaging.ReadPGM(f)
		f.Close()
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, input{path: path, img: img})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	writeOverlay := func(img *imaging.Image, found []parmcmc.Ellipse) {
		circles := make([]geom.Ellipse, len(found))
		for i, e := range found {
			circles[i] = geom.Ellipse{X: e.X, Y: e.Y, Rx: e.Rx, Ry: e.Ry, Theta: e.Theta}
		}
		of, err := os.Create(*overlay)
		if err != nil {
			fatalf("%v", err)
		}
		if err := img.WriteOverlayPNG(of, circles); err != nil {
			fatalf("%v", err)
		}
		if err := of.Close(); err != nil {
			fatalf("%v", err)
		}
	}

	// Resume mode: one image, strategy and chain options from the file.
	if *resume != "" {
		if len(inputs) != 1 {
			fatalf("-resume needs exactly one input image")
		}
		blob, err := os.ReadFile(*resume)
		if err != nil {
			fatalf("%v", err)
		}
		var cp parmcmc.Checkpoint
		if err := cp.UnmarshalBinary(blob); err != nil {
			fatalf("%v", err)
		}
		opt := parmcmc.Options{Workers: *workers}
		if *progress {
			opt.Observer = progressPrinter(inputs[0].path)
		}
		if *checkpoint != "" {
			opt.OnCheckpoint = checkpointWriter(*checkpoint)
			opt.CheckpointEvery = *ckptEvery
		}
		img := inputs[0].img
		res, err := parmcmc.DetectResume(ctx, img.Pix, img.W, img.H, opt, &cp)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		if *overlay != "" {
			writeOverlay(img, res.Ellipses)
		}
		return
	}

	type job struct {
		name string
		img  *imaging.Image
		opt  parmcmc.Options
	}
	var jobs []job
	for _, inp := range inputs {
		for _, strat := range strategies {
			name := inp.path
			if len(strategies) > 1 {
				name += "/" + strat.String()
			}
			opt := parmcmc.Options{
				Strategy:      strat,
				Shape:         shapeKind,
				MeanRadius:    *radius,
				ExpectedCount: *count,
				Iterations:    *iters,
				Workers:       *workers,
				Seed:          *seed,
			}
			if *progress {
				opt.Observer = progressPrinter(name)
			}
			jobs = append(jobs, job{name: name, img: inp.img, opt: opt})
		}
	}
	if *overlay != "" && len(jobs) > 1 {
		fatalf("-overlay needs a single image and strategy")
	}
	if *checkpoint != "" {
		if len(jobs) > 1 {
			fatalf("-checkpoint needs a single image and strategy")
		}
		jobs[0].opt.OnCheckpoint = checkpointWriter(*checkpoint)
		jobs[0].opt.CheckpointEvery = *ckptEvery
	}

	conc := *parallel
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	results := make([]*parmcmc.Result, len(jobs))
	errs := make([]error, len(jobs))
	sched.ForEach(len(jobs), conc, func(i int) {
		j := jobs[i]
		results[i], errs[i] = parmcmc.DetectContext(ctx, j.img.Pix, j.img.W, j.img.H, j.opt)
	})
	failed := false
	for i, j := range jobs {
		if errs[i] != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, errs[i])
			continue
		}
		if len(jobs) > 1 {
			fmt.Printf("# job: %s\n", j.name)
		}
		printResult(results[i])
	}
	if failed {
		stopProf() // os.Exit skips defers; flush profiles first
		os.Exit(1)
	}

	if *overlay != "" {
		writeOverlay(inputs[0].img, results[0].Ellipses)
	}
}

// printResult writes one job's CSV block to stdout and its summary line
// to stderr. Ellipse runs print the full shape parameters (even when a
// run found nothing, so the schema is a function of the request, not of
// the posterior sample); disc runs keep the historical x,y,r format.
func printResult(res *parmcmc.Result) {
	if res.Shape == parmcmc.Ellipses {
		fmt.Println("x,y,rx,ry,theta")
		for _, e := range res.Ellipses {
			fmt.Printf("%.3f,%.3f,%.3f,%.3f,%.3f\n", e.X, e.Y, e.Rx, e.Ry, e.Theta)
		}
	} else {
		fmt.Println("x,y,r")
		for _, c := range res.Circles {
			fmt.Printf("%.3f,%.3f,%.3f\n", c.X, c.Y, c.R)
		}
	}
	fmt.Fprintf(os.Stderr,
		"%s: %d artifacts in %v (%d iterations, %d partitions)\n",
		res.Strategy, len(res.Circles), res.Elapsed.Round(1e6),
		res.Iterations, res.Partitions)
}

// progressPrinter returns an Observer streaming one line per snapshot.
func progressPrinter(name string) func(parmcmc.Progress) {
	return func(p parmcmc.Progress) {
		total := ""
		if p.Total > 0 {
			total = fmt.Sprintf("/%d", p.Total)
		}
		fmt.Fprintf(os.Stderr,
			"progress: %s strategy=%s phase=%q iter=%d%s circles=%d logpost=%.2f accept=%.2f regions=%d/%d\n",
			name, p.Strategy, p.Phase, p.Iter, total,
			p.NumCircles, p.LogPost, p.AcceptRate, p.PartitionsDone, p.Partitions)
	}
}

// checkpointWriter returns an OnCheckpoint callback that persists each
// snapshot atomically (write-then-rename), so an interruption never
// leaves a truncated checkpoint behind.
func checkpointWriter(path string) func(*parmcmc.Checkpoint) {
	return func(cp *parmcmc.Checkpoint) {
		blob, err := cp.MarshalBinary()
		if err != nil {
			log.Printf("checkpoint: %v", err)
			return
		}
		if err := cliutil.WriteFileAtomic(path, blob, 0o644); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
}
