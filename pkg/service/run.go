package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/cliutil"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// RunChain runs one job's chain — the one run path of the standalone
// executor and of a leased worker — from its record and input bytes,
// resuming from checkpoint (the spooled blob) when one is given, and
// returns the encoded api.ResultView. An upload whose bytes are not
// given (input nil) is read from the spool. The chain reports progress
// to observe and, with a spoolDir, writes a checkpoint about every
// checkpointEvery iterations to <spoolDir>/<id>/checkpoint.bin
// atomically, except the stop point of a run whose ctx ended for a
// reason other than drainCtx's (the process lifetime): a client's
// cancel while drainCtx is live, or a lost lease (ctx cancelled with a
// cause of its own) ends the job there, while a shutdown resumes
// exactly where it stopped.
func RunChain(ctx, drainCtx context.Context, rec api.JobRecord, input, checkpoint []byte,
	checkpointEvery int, observe func(parmcmc.Progress), spoolDir string,
	logf func(format string, args ...any)) (json.RawMessage, error) {
	if input == nil && rec.Input != "" {
		var err error
		if input, err = readSpooledInput(spoolDir, rec); err != nil {
			return nil, fmt.Errorf("service: record %s: %w", rec.ID, err)
		}
	}
	pix, w, h, opt, err := materialize(rec, input)
	if err != nil {
		return nil, fmt.Errorf("service: record %s: %w", rec.ID, err)
	}
	opt.CheckpointEvery = checkpointEvery
	opt.Observer = observe
	if spoolDir != "" {
		path := filepath.Join(spoolDir, rec.ID, spoolCheckpointFile)
		opt.OnCheckpoint = func(cp *parmcmc.Checkpoint) {
			if ctx.Err() != nil && context.Cause(ctx) != context.Cause(drainCtx) {
				return
			}
			blob, err := cp.MarshalBinary()
			if err == nil {
				err = cliutil.WriteFileAtomic(path, blob, 0o644)
			}
			if err != nil {
				logf("service: checkpointing %s: %v", rec.ID, err)
			}
		}
	}
	var res *parmcmc.Result
	if len(checkpoint) > 0 {
		var cp parmcmc.Checkpoint
		if err := cp.UnmarshalBinary(checkpoint); err != nil {
			return nil, fmt.Errorf("service: checkpoint of %s: %w", rec.ID, err)
		}
		res, err = parmcmc.DetectResume(ctx, pix, w, h, opt, &cp)
	} else {
		res, err = parmcmc.DetectContext(ctx, pix, w, h, opt)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(api.NewResultView(res))
	if err != nil {
		return nil, fmt.Errorf("service: encoding result of %s: %w", rec.ID, err)
	}
	return raw, nil
}
