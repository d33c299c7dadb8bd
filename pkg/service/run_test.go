package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

var errLostLease = errors.New("lease lost")

// TestRunChain pins RunChain's checkpoint-and-drain rule — the one both
// roles run under — and its resume path.
func TestRunChain(t *testing.T) {
	spec := testOptions(31, 40000)
	rec := api.JobRecord{ID: "job-1", Seed: spec.Seed, Options: spec, Scene: &testScene}
	want := expectedView(t, testScene, spec)

	// stop runs the chain with its periodic checkpoints out of reach and
	// stops it at its first progress snapshot by ending ctx — with
	// cause, if one is given, as a worker's lost lease does — and, for
	// a shutdown, drainCtx too. It returns the checkpoint left in the
	// spool, or nil. A failed checkpoint write fails the test.
	stop := func(t *testing.T, shutdown bool, cause error) []byte {
		spool := t.TempDir()
		if err := os.MkdirAll(filepath.Join(spool, "job-1"), 0o755); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		drainCtx, endProcess := context.WithCancel(context.Background())
		defer endProcess()
		observe := func(parmcmc.Progress) {
			cancel(cause)
			if shutdown {
				endProcess()
			}
		}
		logf := func(f string, a ...any) { t.Errorf(f, a...) }
		if _, err := RunChain(ctx, drainCtx, rec, nil, nil, 100_000_000, observe, spool, logf); !errors.Is(err, context.Canceled) {
			t.Fatalf("stopped run returned %v, want context.Canceled", err)
		}
		blob, err := os.ReadFile(filepath.Join(spool, "job-1", spoolCheckpointFile))
		if os.IsNotExist(err) {
			return nil
		} else if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	for _, tc := range []struct {
		name     string
		shutdown bool
		cause    error
	}{
		{"cancel_with_drain_live_writes_no_stop_point", false, nil},
		{"shutdown_writes_stop_point_that_resumes_bit_identically", true, nil},
		{"lost_lease_during_shutdown_writes_no_stop_point", true, errLostLease},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := stop(t, tc.shutdown, tc.cause)
			if !tc.shutdown || tc.cause != nil {
				if blob != nil {
					t.Fatal("a run stopped for good spooled its stop point")
				}
				return
			}
			if blob == nil {
				t.Fatal("a shutdown left no checkpoint at its stop point")
			}
			raw, err := RunChain(context.Background(), context.Background(), rec, nil, blob, 0, nil, "",
				func(f string, a ...any) { t.Errorf(f, a...) })
			if err != nil {
				t.Fatal(err)
			}
			var got api.ResultView
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got := normalizeResult(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed result differs from an uninterrupted run\ngot  %+v\nwant %+v", got, want)
			}
		})
	}

	t.Run("corrupt_checkpoint_is_an_error", func(t *testing.T) {
		if _, err := RunChain(context.Background(), context.Background(), rec, nil,
			[]byte("not a checkpoint"), 0, nil, "", t.Logf); err == nil {
			t.Fatal("RunChain accepted a corrupt checkpoint")
		}
	})
}
