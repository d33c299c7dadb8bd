package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/testcorpus"
	"repro/pkg/api"
)

var inputCases = []e2eCase{
	{
		ID:       "C00301",
		Title:    "Fuzz corpus replayed against a live daemon: no 5xx, typed rejects",
		Priority: 2,
		Smoke:    true,
		Run:      caseMalformedCorpusSweep,
	},
	{
		ID:       "C00302",
		Title:    "Hostile requests beyond the decoder get typed envelopes",
		Priority: 2,
		Smoke:    true,
		Run:      caseHostileRequestContracts,
	},
}

// C00301: every entry of the shared fuzz corpus (internal/testcorpus —
// the same triples the fuzzer seeds from) is POSTed at a live daemon.
// The black-box contract: never a 5xx, never a dropped connection,
// every rejection a typed envelope, every acceptance a well-formed
// JobStatus — and the daemon is still healthy afterwards.
func caseMalformedCorpusSweep(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1")
	ctx := context.Background()

	for _, e := range testcorpus.Submit() {
		u := d.url + api.Prefix + "/jobs"
		if e.RawQuery != "" {
			u += "?" + e.RawQuery
		}
		req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(e.Body))
		if err != nil {
			t.Fatal(err)
		}
		if e.ContentType != "" {
			req.Header.Set("Content-Type", e.ContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: connection-level failure: %v", e.Name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading response: %v", e.Name, err)
		}
		switch {
		case resp.StatusCode >= 500:
			t.Errorf("%s: daemon answered %d:\n%s", e.Name, resp.StatusCode, body)
		case resp.StatusCode >= 400:
			var env api.ErrorEnvelope
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil || env.Code == "" || env.Message == "" {
				t.Errorf("%s: %d body is not a typed envelope (%v):\n%s", e.Name, resp.StatusCode, err, body)
			}
		default:
			var st api.JobStatus
			if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
				t.Errorf("%s: accepted (%d) but body is not a JobStatus (%v):\n%s", e.Name, resp.StatusCode, err, body)
				continue
			}
			// Don't let accepted corpus jobs burn CPU under the rest of
			// the sweep (cancel is idempotent, even if the tiny ones
			// already finished).
			if _, err := d.c.Cancel(ctx, st.ID); err != nil {
				t.Errorf("%s: cancelling accepted job: %v", e.Name, err)
			}
		}
	}

	if h, err := d.c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("daemon unhealthy after the sweep: %+v, %v", h, err)
	}
	// And it still does real work.
	st := d.submit(t, matrixScene, matrixOptions(20_000, 9))
	doneResult(t, d.waitDone(t, st.ID, 120*time.Second))
}

// C00302: hostile traffic the submit decoder never sees — wrong
// methods, unknown routes, oversized garbage bodies, bad stream
// requests. All must produce typed envelopes with correct status
// codes, never 5xx or hangs.
func caseHostileRequestContracts(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1")

	expectEnvelope := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
			return
		}
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Errorf("%s: body is not an envelope: %v", name, err)
			return
		}
		if env.Code != wantCode || env.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q", name, env, wantCode)
		}
	}

	// Unknown route.
	resp, err := http.Get(d.url + "/v1/definitely-not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope("unknown route", resp, http.StatusNotFound, api.CodeNotFound)

	// Wrong method on a real route (Allow header included).
	req, _ := http.NewRequest(http.MethodDelete, d.url+api.Prefix+"/version", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Errorf("405 Allow header %q", allow)
	}
	expectEnvelope("wrong method", resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	// SSE stream for a job that does not exist.
	req, _ = http.NewRequest(http.MethodGet, d.url+api.Prefix+"/jobs/job-99999999/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope("events for unknown job", resp, http.StatusNotFound, api.CodeNotFound)

	// A multi-megabyte garbage upload: rejected as an unsupported image,
	// not by falling over.
	garbage := bytes.Repeat([]byte("\xde\xad\xbe\xef"), 1<<20) // 4 MiB
	resp, err = http.Post(d.url+api.Prefix+"/jobs?radius=5", "image/png", bytes.NewReader(garbage))
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope("oversized garbage upload", resp, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia)

	// Cancel on an already-terminal job is an idempotent no-op: it must
	// neither error nor clobber the terminal state.
	st := d.submit(t, matrixScene, matrixOptions(10_000, 3))
	d.waitDone(t, st.ID, 120*time.Second)
	after, cerr := d.c.Cancel(context.Background(), st.ID)
	if cerr != nil {
		t.Errorf("cancel of a done job errored: %v", cerr)
	} else if after.State != api.StateDone {
		t.Errorf("cancel of a done job rewrote its state to %q", after.State)
	}

	// Cancel of an unknown job is the typed 404.
	_, cerr = d.c.Cancel(context.Background(), "job-99999999")
	var cenv *api.ErrorEnvelope
	if !errors.As(cerr, &cenv) || cenv.Code != api.CodeNotFound {
		t.Errorf("cancel of an unknown job: %v, want a %s envelope", cerr, api.CodeNotFound)
	}

	if h, err := d.c.Health(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("daemon unhealthy after hostile traffic: %+v, %v", h, err)
	}
}
