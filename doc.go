// Package repro reproduces Byrd, Jarvis & Bhalerao, "On the
// Parallelisation of MCMC-based Image Processing" (IEEE IPDPS workshops,
// 2010): reversible-jump MCMC detection of artifacts in images,
// parallelised by periodic partitioning (§V), speculative moves,
// intelligent and blind image partitioning (§VIII), with (MC)³ as the
// related-work baseline. The paper's workload is circular artifacts;
// the shape layer of internal/geom (predicate-pinned scanline spans)
// extends every strategy to ellipses — per-feature semi-axes and
// rotation — selected via parmcmc.Options.Shape with no
// strategy-specific shape code.
//
// Use the public API in pkg/parmcmc. Each of the six strategies is a
// steppable sampler (Step/Snapshot/Finish) picked by one switch and
// driven by one generic chunked loop that provides cooperative
// cancellation, streaming progress (Options.Observer) and
// bit-identical checkpoint/resume (Options.OnCheckpoint, DetectResume)
// uniformly across strategies.
//
// pkg/service wraps the library as a long-running daemon (cmd/mcmcd):
// a bounded job queue + worker pool behind an HTTP API with SSE
// progress streams, 429 backpressure, Prometheus-style metrics and
// spool-backed crash durability — interrupted jobs resume from their
// latest checkpoint to bit-identical results. The black-box case
// catalog in test/e2e (test/doc/cases.md) pins that against the real
// binaries, SIGKILL included.
//
// The repository-root benchmarks (bench_test.go) regenerate every
// table and figure of the paper's evaluation. See README.md and
// docs/architecture.md.
package repro
