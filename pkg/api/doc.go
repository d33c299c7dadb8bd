// Package api is the versioned wire contract of the mcmcd detection
// service: every request and response type of the v1 HTTP API, the
// machine-readable error envelope, and the persisted spool-record
// format. It is the single canonical definition shared by the server
// (pkg/service), the typed Go client (pkg/client), the operator CLI
// (cmd/mcmcctl) and the black-box test harnesses — none of which
// define wire shapes of their own. OptionsSpec is the exception: an
// alias of parmcmc.OptionsSpec, so checkpoints share its struct.
//
// The v1 surface (all paths under /v1 except the operational
// endpoints):
//
//	POST   /v1/jobs             submit a job: JSON JobSpec body, or a
//	                            raw PNG/PGM upload with OptionsSpec
//	                            fields as query parameters
//	GET    /v1/jobs             list jobs    → []JobStatus
//	GET    /v1/jobs/{id}        one job      → JobStatus
//	DELETE /v1/jobs/{id}        cancel       → JobStatus
//	GET    /v1/jobs/{id}/events SSE stream: "state", "progress"
//	                            (ProgressEvent) and a final "done"
//	                            (JobStatus) event
//	GET    /v1/jobs/{id}/diag   chain diagnostics → DiagView
//	GET    /v1/nodes            worker registry → []NodeView
//	                            (coordinator role only)
//	GET    /v1/version          contract + build info → VersionInfo
//	GET    /healthz             liveness → Health
//	GET    /metrics             Prometheus text exposition
//
// A coordinator additionally serves the internal worker-facing
// protocol under /internal/v1 (register, heartbeat, lease, progress,
// complete) — see worker.go for the routes and types.
//
// Every non-2xx response body is an ErrorEnvelope: a stable,
// machine-readable Code plus a human-oriented message. Wrong methods
// on a known route answer 405 with an Allow header; unknown paths
// answer a typed 404 envelope — there is no untyped error surface.
//
// Numeric edge cases: float fields that can legitimately be NaN or
// ±Inf (log-posteriors, rates) use the Float type, which marshals
// those as JSON null and unmarshals null back to NaN. Everything else
// marshals with Go's shortest round-trip float encoding, so a decoded
// view compares bit-identical to one built locally from the same
// result.
package api

// Version is the API contract version served under /v1.
const Version = "v1"

// Prefix is the URL prefix of all versioned routes.
const Prefix = "/" + Version
