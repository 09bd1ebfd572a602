package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/evlog"
	"repro/internal/service"
)

// newClockedRegistry builds a registry with a small service, a fake
// clock it returns the advance of, and the janitor disabled so tests
// drive Sweep directly. The rest of the lifecycle (limits, retention,
// delete, drain) is covered by the shared registry suite in
// internal/evlog.
func newClockedRegistry(t *testing.T, cfg Config) (*Registry, func(time.Duration)) {
	t.Helper()
	var clock atomic.Int64
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	cfg.SweepInterval = -1
	cfg.Now = func() time.Time { return time.Unix(1_700_000_000, clock.Load()) }
	reg := NewRegistry(svc, cfg)
	t.Cleanup(reg.Close)
	return reg, func(d time.Duration) { clock.Add(int64(d)) }
}

// open starts a session or fails the test.
func open(t *testing.T, reg *Registry, cfg api.SessionRequest) *Session {
	t.Helper()
	sess, err := reg.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return sess
}

// session configuration used throughout: small but with several
// windows' worth of samples.
func testConfig() api.SessionRequest {
	return api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:      32,
		WindowSize: 8,
	}
}

// consume drains a session's event log, returning every line and the
// end event's reason.
func consume(t *testing.T, sess *Session) (lines [][]byte, reason string) {
	t.Helper()
	log := sess.Log()
	log.Subscribe()
	defer log.Unsubscribe()
	deadline := time.After(30 * time.Second)
	for i := 0; ; {
		ls, next, wait, done := log.Events(i)
		if i, lines = next, append(lines, ls...); len(ls) == 0 && done {
			break
		} else if len(ls) == 0 {
			select {
			case <-wait:
			case <-deadline:
				t.Fatalf("timed out waiting for session events (have %d)", i)
			}
		}
	}
	var last api.StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != api.StreamEnd {
		t.Fatalf("last event %s is no end event (%v)", lines[len(lines)-1], err)
	}
	return lines, last.Reason
}

// filterType returns the lines of one event type.
func filterType(t *testing.T, lines [][]byte, typ string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, ln := range lines {
		var ev api.StreamEvent
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("unmarshal %q: %v", ln, err)
		}
		if ev.Type == typ {
			out = append(out, ln)
		}
	}
	return out
}

// TestIdenticalSessionsStreamIdenticalSeries is the acceptance
// criterion: two sessions with the same normalized configuration
// produce byte-identical NDJSON sample series.
func TestIdenticalSessionsStreamIdenticalSeries(t *testing.T) {
	reg, _ := newClockedRegistry(t, Config{})
	a := open(t, reg, testConfig())
	b := open(t, reg, testConfig())
	linesA, reasonA := consume(t, a)
	linesB, reasonB := consume(t, b)
	if reasonA != api.SessionDone || reasonB != api.SessionDone {
		t.Fatalf("end reasons = %q, %q, want done", reasonA, reasonB)
	}
	samplesA := filterType(t, linesA, api.StreamSample)
	samplesB := filterType(t, linesB, api.StreamSample)
	if len(samplesA) != 32 || len(samplesB) != 32 {
		t.Fatalf("sample counts = %d, %d, want 32", len(samplesA), len(samplesB))
	}
	// Samples, windows and drift events are all deterministic: the full
	// logs must match byte for byte (both sessions ended the same way).
	if a, b := bytes.Join(linesA, nil), bytes.Join(linesB, nil); !bytes.Equal(a, b) {
		t.Fatalf("logs diverge:\n  a: %s\n  b: %s", a, b)
	}
}

// TestInjectedStepChangeFlagsDrift is the acceptance criterion: a step
// change in the corrected estimate is flagged within 2 windows.
func TestInjectedStepChangeFlagsDrift(t *testing.T) {
	const injectStep = 18 // mid-window: window 2 is mixed, window 3 fully shifted
	cfg := testConfig()
	cfg.Steps = 48
	cfg.Inject = &api.InjectSpec{AfterStep: injectStep, Offset: 1_000_000}
	reg, _ := newClockedRegistry(t, Config{})
	sess := open(t, reg, cfg)
	lines, reason := consume(t, sess)
	if reason != api.SessionDone {
		t.Fatalf("end reason = %q, want done", reason)
	}
	drifts := filterType(t, lines, api.StreamDrift)
	if len(drifts) == 0 {
		t.Fatal("injected step change produced no drift event")
	}
	var ev api.StreamEvent
	if err := json.Unmarshal(drifts[0], &ev); err != nil {
		t.Fatal(err)
	}
	injWindow := injectStep / cfg.WindowSize
	if ev.Drift.Window > injWindow+2 {
		t.Errorf("drift flagged at window %d, want within 2 of window %d", ev.Drift.Window, injWindow)
	}
	// The triggering window may straddle the injection step, so its
	// mean shift is a fraction of the full offset — but far above any
	// jitter the simulator produces.
	if ev.Drift.Shift < 100_000 {
		t.Errorf("drift shift = %v, want a large positive step", ev.Drift.Shift)
	}
	// The snapshot agrees with the stream.
	snap := sess.Snapshot()
	if len(snap.Drifts) != len(drifts) {
		t.Errorf("snapshot has %d drifts, stream %d", len(snap.Drifts), len(drifts))
	}
	if snap.State != api.SessionDone || snap.Total != 48 {
		t.Errorf("snapshot state/total = %s/%d, want done/48", snap.State, snap.Total)
	}
}

// TestStableSeriesFlagsNoDrift guards the quantization slack: a
// steady configuration must not fire drift events on integer jitter.
func TestStableSeriesFlagsNoDrift(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 64
	reg, _ := newClockedRegistry(t, Config{})
	sess := open(t, reg, cfg)
	lines, _ := consume(t, sess)
	if drifts := filterType(t, lines, api.StreamDrift); len(drifts) != 0 {
		t.Errorf("stable series fired %d drift events: %s", len(drifts), drifts[0])
	}
}

func TestIdleEviction(t *testing.T) {
	reg, advance := newClockedRegistry(t, Config{IdleTimeout: time.Minute})
	sess := open(t, reg, testConfig())
	consume(t, sess) // session runs to completion and is now idle

	if n := reg.Sweep(); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	advance(2 * time.Minute)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	if _, err := reg.Get(sess.ID); !errors.Is(err, evlog.ErrNotFound) {
		t.Errorf("Get after eviction: %v, want ErrNotFound", err)
	}
	if active, retained := reg.Stats(); active != 0 || retained != 0 {
		t.Errorf("registry still holds %d sessions (%d active)", retained, active)
	}
}

func TestAttachedStreamPreventsEviction(t *testing.T) {
	reg, advance := newClockedRegistry(t, Config{IdleTimeout: time.Minute})
	sess := open(t, reg, testConfig())
	sess.Log().Subscribe()
	defer sess.Log().Unsubscribe()
	advance(time.Hour)
	if n := reg.Sweep(); n != 0 {
		t.Errorf("Sweep evicted %d subscribed sessions, want 0", n)
	}
}

// TestLateAttachReplaysRetainedTail: a reader that starts before the
// log's retention window resumes from the oldest retained line
// instead of stalling or re-reading.
func TestLateAttachReplaysRetainedTail(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 64
	cfg.Capacity = 16 // logCap 2*16+16 = 48 < ~73 emitted lines
	cfg.WindowSize = 8
	reg, _ := newClockedRegistry(t, Config{})
	sess := open(t, reg, cfg)
	// Attach again only after the session finished, so the retention
	// window has certainly slid past the early lines.
	consume(t, sess)
	lines, reason := consume(t, sess)
	if reason != api.SessionDone {
		t.Fatalf("end reason = %q", reason)
	}
	samples := filterType(t, lines, api.StreamSample)
	if len(samples) == 0 || len(samples) >= 64 {
		t.Errorf("late attach delivered %d samples, want a non-empty strict tail", len(samples))
	}
	var first api.StreamEvent
	if err := json.Unmarshal(samples[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Sample.Step == 0 {
		t.Error("tail replay starts at step 0; expected older lines to be dropped")
	}
	var last api.StreamEvent
	if err := json.Unmarshal(samples[len(samples)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Sample.Step != 63 {
		t.Errorf("tail replay ends at step %d, want 63", last.Sample.Step)
	}
}

func TestOpenValidatesRequest(t *testing.T) {
	reg, _ := newClockedRegistry(t, Config{})
	bad := testConfig()
	bad.WindowSize = 1
	if _, err := reg.Open(context.Background(), bad); !errors.Is(err, api.ErrBadRequest) {
		t.Errorf("Open(bad) = %v, want ErrBadRequest", err)
	}
}
