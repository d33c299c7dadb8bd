package api

import (
	"encoding/json"
	"math"
	"time"

	"repro/pkg/parmcmc"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the JSON body of POST /v1/jobs for synthetic-scene jobs.
// Image uploads instead send raw PNG/PGM bytes with OptionsSpec fields
// as query parameters.
type JobSpec struct {
	Scene   *SceneSpec  `json:"scene"`
	Options OptionsSpec `json:"options"`
}

// SceneSpec describes a synthetic scene to generate server-side.
type SceneSpec struct {
	W          int     `json:"w"`
	H          int     `json:"h"`
	Count      int     `json:"count"`
	MeanRadius float64 `json:"mean_radius"`
	Noise      float64 `json:"noise,omitempty"`
	Clusters   int     `json:"clusters,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// Shape selects the artifact family ("disc" default, "ellipse");
	// AxisRatio the mean minor/major ratio of ellipse scenes.
	Shape     string  `json:"shape,omitempty"`
	AxisRatio float64 `json:"axis_ratio,omitempty"`
}

// OptionsSpec is the JSON "options" object and, through
// ParseOptionsQuery, the upload query string: parmcmc's serializable
// option form, the one checkpoints store.
type OptionsSpec = parmcmc.OptionsSpec

// JobStatus is the JSON representation of a job: the response of
// submit/get/cancel, the element type of the list endpoint, and the
// payload of the SSE "state" and "done" events.
type JobStatus struct {
	ID        string          `json:"id"`
	State     JobState        `json:"state"`
	Strategy  string          `json:"strategy"`
	Seed      uint64          `json:"seed"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Progress  *ProgressEvent  `json:"progress,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Restarted reports that a daemon recovered this job without a
	// usable checkpoint: every pre-crash iteration was discarded and the
	// run starts over from iteration zero. Streaming clients use it to
	// rewind their progress watermark — without it, a dedup watermark
	// from the pre-crash run would silently suppress all re-run
	// progress. Checkpoint-resumed jobs do NOT set it (their replayed
	// window is deduplicated instead).
	Restarted bool `json:"restarted,omitempty"`
	// Worker is the ID of the worker currently holding the job's lease
	// (coordinator role only; empty standalone and for queued jobs).
	Worker string `json:"worker,omitempty"`
}

// ResultView decodes the embedded Result, or returns nil for a job
// without one.
func (s *JobStatus) ResultView() (*ResultView, error) {
	if len(s.Result) == 0 {
		return nil, nil
	}
	var v ResultView
	if err := json.Unmarshal(s.Result, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// ProgressEvent is one streaming progress snapshot: the payload of the
// SSE "progress" event and the Progress field of JobStatus. Snapshots
// are self-contained — each one supersedes all earlier ones.
type ProgressEvent struct {
	Phase          string `json:"phase"`
	Iter           int64  `json:"iter"`
	Total          int64  `json:"total,omitempty"`
	LogPost        Float  `json:"log_post"`
	NumCircles     int    `json:"num_circles"`
	AcceptRate     Float  `json:"accept_rate"`
	Partitions     int    `json:"partitions"`
	PartitionsDone int    `json:"partitions_done"`

	// Speculative-executor telemetry (PeriodicSpeculative runs only):
	// the speculation width the global phases run at — the configured
	// fixed width, or the run-ahead depth, 8, at the adaptive setting
	// (see parmcmc.Progress) — and the measured
	// committed-iterations-per-batch speedup so far. Telemetry
	// only: the sampled chain is identical for every width, so these
	// never appear in ResultView.
	SpecWidth   int   `json:"spec_width,omitempty"`
	SpecSpeedup Float `json:"spec_speedup,omitempty"`
}

// CircleView is one detected artifact in disc form (equal-area radius
// for ellipse runs).
type CircleView struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

// EllipseView is one detected artifact in generic shape form.
type EllipseView struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Rx    float64 `json:"rx"`
	Ry    float64 `json:"ry"`
	Theta float64 `json:"theta"`
}

// RegionView describes one partition of a partitioned run.
type RegionView struct {
	X0        float64 `json:"x0"`
	Y0        float64 `json:"y0"`
	X1        float64 `json:"x1"`
	Y1        float64 `json:"y1"`
	Area      float64 `json:"area"`
	Lambda    float64 `json:"lambda"`
	Circles   int     `json:"circles"`
	Iters     int64   `json:"iters"`
	Converged bool    `json:"converged"`
	Seconds   float64 `json:"seconds"`
}

// ResultView is the JSON form of a detection result. Float fields
// marshal with Go's shortest round-trip encoding, so a decoded view
// compares bit-identical to one built locally from the same result.
type ResultView struct {
	Strategy         string        `json:"strategy"`
	Shape            string        `json:"shape"`
	Circles          []CircleView  `json:"circles"`
	Ellipses         []EllipseView `json:"ellipses,omitempty"`
	LogPost          Float         `json:"log_post"`
	Iterations       int64         `json:"iterations"`
	ElapsedSeconds   float64       `json:"elapsed_seconds"`
	Partitions       int           `json:"partitions"`
	AcceptRate       Float         `json:"accept_rate"`
	GlobalRejectRate Float         `json:"global_reject_rate"`
	LocalRejectRate  Float         `json:"local_reject_rate"`
	Barriers         int64         `json:"barriers,omitempty"`
	SwapRate         Float         `json:"swap_rate,omitempty"`
	Merged           int           `json:"merged,omitempty"`
	Disputed         int           `json:"disputed,omitempty"`
	Regions          []RegionView  `json:"regions,omitempty"`
}

// DiagView is the response of GET /v1/jobs/{id}/diag: chain health for
// one job. While the job runs, RHat and ESS are computed over a sliding
// window of streamed log-posterior samples (split-R̂ and autocorrelation
// ESS), so an operator can tell a mixing chain (R̂ → 1, healthy accept
// rate) from a stuck or still-trending one — without waiting for the
// final result. For terminal jobs the result-level rates and per-region
// convergence are included. Samples counts the window's observations;
// RHat/ESS are null until the window holds enough of them. Convergence
// windows live in daemon memory: a job recovered from the spool after a
// restart reports Samples 0 until it streams new progress.
type DiagView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Strategy string   `json:"strategy"`
	Shape    string   `json:"shape,omitempty"`
	Seed     uint64   `json:"seed"`

	Progress *ProgressEvent `json:"progress,omitempty"`

	// Streaming convergence statistics over recent log-posterior
	// samples (observed at chunk boundaries).
	Samples int   `json:"samples"`
	RHat    Float `json:"rhat"`
	ESS     Float `json:"ess"`

	// Speculative-executor telemetry, lifted from the latest progress
	// snapshot of PeriodicSpeculative runs (absent otherwise): the
	// current speculation width and the measured iterations-per-batch
	// speedup. Also exported as the mcmcd_spec_width/mcmcd_spec_speedup
	// per-job gauges on /metrics.
	SpecWidth   int   `json:"spec_width,omitempty"`
	SpecSpeedup Float `json:"spec_speedup,omitempty"`

	// Result-level diagnostics, present once the job is done.
	AcceptRate       Float        `json:"accept_rate,omitempty"`
	GlobalRejectRate Float        `json:"global_reject_rate,omitempty"`
	LocalRejectRate  Float        `json:"local_reject_rate,omitempty"`
	SwapRate         Float        `json:"swap_rate,omitempty"`
	Regions          []RegionView `json:"regions,omitempty"`

	Error string `json:"error,omitempty"`
}

// VersionInfo is the response of GET /v1/version: the contract version
// plus the server's capability registries, so clients can discover
// valid strategy and shape names without hardcoding them.
type VersionInfo struct {
	API        string   `json:"api"`
	Service    string   `json:"service"`
	GoVersion  string   `json:"go_version"`
	Strategies []string `json:"strategies"`
	Shapes     []string `json:"shapes"`
	// Role is the process role serving this API: "standalone",
	// "coordinator" or "worker" (empty from servers predating roles).
	Role string `json:"role,omitempty"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[string]int `json:"jobs"`
}

// Spool layout: the daemon keeps one directory per job under its spool
// root, holding these files (plus the raw input image for uploads).
// The names are part of the durable contract — mcmcctl inspects a
// spool offline through them.
const (
	// SpoolRecordFile is the submission record, a JSON JobRecord.
	SpoolRecordFile = "job.json"
	// SpoolCheckpointFile is the latest resumable checkpoint.
	SpoolCheckpointFile = "checkpoint.bin"
	// SpoolResultFile is the final ResultView once the job is done.
	SpoolResultFile = "result.json"
)

// JobRecord is the persisted spool record (<spool>/<job-id>/job.json):
// everything a restarted daemon needs to rebuild the job. Non-terminal
// recorded states (pending, running) mean "interrupted — resume me".
// mcmcctl's spool inspection parses the same format.
type JobRecord struct {
	ID        string      `json:"id"`
	Seed      uint64      `json:"seed"`
	State     JobState    `json:"state"`
	Submitted time.Time   `json:"submitted"`
	Options   OptionsSpec `json:"options"`
	Scene     *SceneSpec  `json:"scene,omitempty"`
	Input     string      `json:"input,omitempty"` // input file name
	Error     string      `json:"error,omitempty"`
}

// Float marshals like float64 but encodes the JSON-unrepresentable
// NaN/±Inf as null instead of failing the whole response, and decodes
// null back to NaN.
type Float float64

func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}
