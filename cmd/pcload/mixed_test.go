package main

import "testing"

func TestBuildMixedPlan(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		shots, err := mixedShots(options{mix: "K8/pc,CD/pc", n: 16, runs: 2}, false, distinct)
		if err != nil {
			t.Fatal(err)
		}
		if len(shots) != 16 {
			t.Fatalf("shots = %d, want 16", len(shots))
		}
		counts := make(map[string]int)
		bodies := make(map[string]bool)
		for _, s := range shots {
			counts[s.path]++
			bodies[s.key] = true
		}
		for _, ep := range []string{"/measure", "/analyze", "/plan", "/infer"} {
			if counts[ep] != 4 {
				t.Errorf("endpoint %s got %d shots, want 4 (of %v)", ep, counts[ep], counts)
			}
		}
		// Plain rotations repeat the /infer body for the determinism
		// check; distinct ones (traced runs) never repeat a body, since
		// identical traced requests in flight together would coalesce and
		// a follower's trace has a different shape from the direct one.
		if want := map[bool]int{false: 13, true: 16}[distinct]; len(bodies) != want {
			t.Errorf("distinct=%v: %d distinct bodies, want %d", distinct, len(bodies), want)
		}
	}
	if _, err := mixedShots(options{mix: "garbage", n: 8, runs: 2}, false, false); err == nil {
		t.Error("bad mix accepted")
	}
}

// TestRunMixedAgainstBackend checks the per-endpoint split: a mixed
// workload reports one latency line per endpoint in addition to the
// pooled summary.
func TestRunMixedAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "mixed", addr: srv.URL, mix: "K8/pc,CD/pc", n: 16, c: 4, runs: 2})
	wantLines(t, report, "latency:", "/measure:", "/analyze:", "/plan:", "/infer:", "determinism:")
}

func TestRunMixedRejectsBadFlags(t *testing.T) {
	rejects(t, "-c 0", options{workload: "mixed", addr: "http://x", mix: "K8/pc", n: 4, runs: 1})
	rejects(t, "bad mix", options{workload: "mixed", addr: "http://x", mix: "garbage", n: 4, c: 2, runs: 1})
}

// TestRunTraceAgainstBackend drives the -trace workload end to end:
// every pair must pass the span-presence and strip-identity checks
// against a real node.
func TestRunTraceAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "trace", addr: srv.URL, mix: "K8/pc,CD/pc", n: 16, c: 4, runs: 2})
	wantLines(t, report, "requests:    32 (0 failed)", "spans:", "/measure:", "/infer:", "trace:       all pairs byte-identical")
}

func TestRunTraceRejectsBadFlags(t *testing.T) {
	rejects(t, "-c 0", options{workload: "trace", addr: "http://x", mix: "K8/pc", n: 4, runs: 1})
	rejects(t, "bad mix", options{workload: "trace", addr: "http://x", mix: "garbage", n: 4, c: 2, runs: 1})
}
