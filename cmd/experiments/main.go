// Command experiments regenerates the paper's tables and figures (see
// README.md, "Reproducing the paper", for the experiment index). Every
// figure's MCMC work is a list of parmcmc.DetectContext calls, so an
// interrupt (ctrl-C) cancels the in-flight detections at their next
// checkpoint instead of killing chains mid-measurement.
//
// Usage:
//
//	experiments                 # run everything at full scale
//	experiments -run fig2,arch  # selected experiments
//	experiments -quick          # shrunken workloads (seconds, not minutes)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		quick    = flag.Bool("quick", false, "use shrunken workloads")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 2010, "RNG seed")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		profiles = cliutil.AddProfileFlags(nil)
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.DefaultOptions()
	opts.Quick = *quick
	opts.Seed = *seed
	if *workers > 0 {
		opts.Workers = *workers
	}

	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner := experiments.Lookup(id)
		if runner == nil {
			fatalf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		res, err := runner(ctx, opts)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if err := res.Write(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
