// Package worker is the data-plane half of distributed mcmcd: a
// stateless process that leases jobs from a coordinator (the internal
// /internal/v1 protocol, wire types in pkg/api) and runs them through
// service.RunChain, the same run path a standalone manager uses.
//
// Stateless means restart-safe by construction: everything durable —
// the job record, the input, every checkpoint — lives in the
// coordinator-owned shared spool. The worker writes checkpoints there
// (atomically, at the coordinator's configured cadence) and streams
// progress back so the coordinator's SSE fan-out keeps serving
// clients. If the worker dies, its heartbeat stops, the lease
// expires, and the coordinator re-leases the job from the last
// checkpoint the worker managed to write — the resumed chain is the
// same trajectory, so the final result is bit-identical.
//
// Liveness and orphan safety: a heartbeat loop beats at the cadence
// the coordinator assigned at registration. unknown_worker on a beat
// (coordinator restarted and lost its in-memory registry) triggers
// re-registration under a fresh ID; in-flight runs under old leases
// keep going only until their next progress report answers
// lease_expired, at which point the run is abandoned mid-flight and
// its result discarded — the re-leased copy elsewhere owns the job
// now. Abandonment is safe at any instant because checkpoint writes
// are atomic and every checkpoint of the same (options, seed) chain
// is a valid state of the same trajectory.
package worker
