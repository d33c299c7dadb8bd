// Package service turns the parmcmc detection library into a
// long-running daemon, layered so one job-lifecycle core serves three
// process roles (see docs/architecture.md):
//
// Every Manager runs its jobs through one seam, Remote, and every chain
// through RunChain, which owns the checkpoint-and-drain policy:
//
//   - Standalone (the default): NewManager is NewExternal plus an
//     in-process executor that takes a pool slot, then the next job
//     from the Remote, runs it with RunChain and lands it with
//     Remote.Complete.
//   - Coordinator: NewExternal builds the same Manager without the
//     executor; the pkg/service/coordinator sub-package drains the
//     returned Remote to lease jobs to external workers, feed their
//     streamed progress back into the SSE fan-out, land their results,
//     and requeue jobs whose lease expired (from the latest spooled
//     checkpoint, or from scratch with Restarted flagged).
//   - Worker: the pkg/service/worker sub-package runs no Manager at
//     all — it leases jobs from a coordinator, materialises their
//     inputs via MaterializeRecord, and runs them through RunChain
//     with checkpoints written to the shared spool.
//
// The wire contract — every request/response type, the route table and
// the error envelope — lives in pkg/api; this package implements the
// public half. Manager.Register mounts the explicit per-method /v1
// routes (unknown paths get a typed 404 envelope, wrong methods a 405
// with an Allow header), and pkg/client speaks the same contract from
// the other side. The internal worker-facing routes (register,
// heartbeat, lease, progress, complete under /internal/v1) are
// mounted by the coordinator sub-package on top, reusing this
// package's exported WriteJSON/WriteError/Methods plumbing so the two
// surfaces answer in one wire style.
//
// Durability: with Config.SpoolDir set, every job's input and options
// are recorded at submission and a resumable parmcmc Checkpoint is
// spooled every Config.CheckpointEvery iterations by RunChain — in the
// manager's own process standalone, in the leased worker (into the
// shared spool) distributed. A job that ends done, failed or cancelled
// keeps no checkpoint. A restarted manager rebuilds terminal jobs from their
// spooled results and re-queues interrupted ones from their latest
// checkpoint; because checkpoints resume bit-identically, a job that
// survives a daemon crash — or, distributed, the death of the worker
// running it — produces exactly the result an uninterrupted run would
// have.
//
// Determinism: jobs that omit options.seed get a per-job seed derived
// from Config.BaseSeed and the submission sequence number by
// parmcmc.DeriveSeed (SplitMix64). Results for a fixed seed
// are bit-identical to a direct parmcmc.Detect call with the same
// options, regardless of queueing, concurrency, observation,
// crash/resume history, or which worker process ran the chain.
package service
