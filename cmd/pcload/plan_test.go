package main

import (
	"bytes"
	"testing"
)

func TestBuildPlanPlans(t *testing.T) {
	m, err := planMode(options{mix: "K8/pc,CD/pc", n: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.waves[0]) != 12 {
		t.Fatalf("shots = %d, want 12", len(m.waves[0]))
	}
	// Every request is issued as an identical pair so the determinism
	// cross-check has duplicates to compare.
	for i := 0; i+1 < len(m.waves[0]); i += 2 {
		if a, b := m.waves[0][i].body, m.waves[0][i+1].body; !bytes.Equal(a, b) {
			t.Errorf("pair %d not identical:\n%s\nvs\n%s", i/2, a, b)
		}
	}
	// The rotation must include both dedicated and multiplexed variants.
	var dedicated, multiplexed int
	for _, s := range m.waves[0] {
		if bytes.Contains(s.body, []byte(`"counters":2`)) {
			multiplexed++
		} else {
			dedicated++
		}
	}
	if dedicated == 0 || multiplexed == 0 {
		t.Errorf("variant rotation incomplete: dedicated=%d multiplexed=%d", dedicated, multiplexed)
	}
	if _, err := planMode(options{mix: "garbage", n: 4}); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestRunPlanAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "plan", addr: srv.URL, mix: "K8/pc", n: 12, c: 4})
	wantLines(t, report, "plans:       12 (0 failed)", "attained:    12/12", "narrowing:", "determinism:")
}

func TestRunPlanRejectsBadFlags(t *testing.T) {
	rejects(t, "-c 0", options{workload: "plan", addr: "http://x", mix: "K8/pc", n: 4})
	rejects(t, "negative -n", options{workload: "plan", addr: "http://x", mix: "K8/pc", n: -1, c: 2})
	rejects(t, "bad mix", options{workload: "plan", addr: "http://x", mix: "garbage", n: 4, c: 2})
}
