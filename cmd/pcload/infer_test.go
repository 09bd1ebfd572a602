package main

import (
	"bytes"
	"testing"
)

func TestBuildInferItems(t *testing.T) {
	m, err := inferMode(options{mix: "K8/pc,CD/pc", n: 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.waves[0]) != 18 {
		t.Fatalf("shots = %d, want 18", len(m.waves[0]))
	}
	// Identical pairs for the determinism cross-check.
	for i := 0; i+1 < len(m.waves[0]); i += 2 {
		if a, b := m.waves[0][i].body, m.waves[0][i+1].body; !bytes.Equal(a, b) {
			t.Errorf("pair %d not identical:\n%s\nvs\n%s", i/2, a, b)
		}
	}
	// All three variants rotate in, including the planted inconsistency.
	var measured, raw, inconsistent int
	for _, s := range m.waves[0] {
		switch {
		case bytes.Contains(s.body, []byte("ITLB_MISS")):
			inconsistent++
		case bytes.Contains(s.body, []byte(`"measure":`)):
			measured++
		default:
			raw++
		}
	}
	if measured == 0 || raw == 0 || inconsistent == 0 {
		t.Errorf("variant rotation incomplete: measured=%d raw=%d inconsistent=%d", measured, raw, inconsistent)
	}
	if _, err := inferMode(options{mix: "garbage", n: 4}); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestRunInferAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "infer", addr: srv.URL, mix: "K8/pc", n: 18, c: 4})
	wantLines(t, report, "infers:      18 (0 failed)", "tightening:", "residuals:   6 planted inconsistencies flagged, 12 clean items clean", "determinism:")
}

func TestRunInferRejectsBadFlags(t *testing.T) {
	rejects(t, "-c 0", options{workload: "infer", addr: "http://x", mix: "K8/pc", n: 4})
	rejects(t, "negative -n", options{workload: "infer", addr: "http://x", mix: "K8/pc", n: -1, c: 2})
	rejects(t, "bad mix", options{workload: "infer", addr: "http://x", mix: "garbage", n: 4, c: 2})
}
