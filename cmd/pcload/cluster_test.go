package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// newClusterFleet spins n real pcserved nodes and a pcfront over them,
// returning the front URL, the direct URL of node 0, and the backend
// servers (for mid-run kills).
func newClusterFleet(t *testing.T, n int) (front, direct string, backends []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	backends = make([]*httptest.Server, n)
	for i := range backends {
		backends[i] = newNode(t)
		urls[i] = backends[i].URL
	}
	f, err := cluster.NewFront(cluster.Config{
		Backends:      urls,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		FailAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fsrv := httptest.NewServer(f.Handler())
	t.Cleanup(fsrv.Close)
	return fsrv.URL, urls[0], backends
}

// TestRunCluster drives the -cluster workload against a real 3-node
// fleet: zero failures, every body byte-identical to the direct node.
func TestRunCluster(t *testing.T) {
	front, direct, _ := newClusterFleet(t, 3)
	report := load(t, options{workload: "cluster", addr: front, direct: direct, mix: "K8/pc,CD/pc", n: 16, c: 4, runs: 2})
	wantLines(t, report, "(0 failed)", "\nbyte-identity:", "fleet:", "encode share:")
}

// TestRunClusterTrace drives -cluster -trace against a real fleet:
// every stitched tree passes, and the report carries the line CI
// greps for.
func TestRunClusterTrace(t *testing.T) {
	front, direct, _ := newClusterFleet(t, 3)
	report := load(t, options{workload: "cluster-trace", addr: front, direct: direct, mix: "K8/pc,CD/pc", n: 8, c: 4, runs: 2})
	wantLines(t, report, "(0 failed)", "\nstitching:", "front spans:")
}

// TestRunClusterSurvivesNodeKill kills one backend before the run: the
// front must fail over with zero failed requests and the bodies must
// still match the direct node byte for byte.
func TestRunClusterSurvivesNodeKill(t *testing.T) {
	front, direct, backends := newClusterFleet(t, 3)
	backends[1].Close() // not the direct node — the oracle must survive
	report := load(t, options{workload: "cluster", addr: front, direct: direct, mix: "K8/pc", n: 12, c: 4, runs: 2})
	wantLines(t, report, "(0 failed)")
}

// TestRunClusterValidation: the mode needs its oracle.
func TestRunClusterValidation(t *testing.T) {
	rejects(t, "-cluster without -direct", options{workload: "cluster", addr: "http://x", mix: "K8/pc", n: 4, c: 2, runs: 2})
	rejects(t, "-cluster -trace without -direct", options{workload: "cluster-trace", addr: "http://x", mix: "K8/pc", n: 4, c: 2, runs: 2})
	rejects(t, "zero workers", options{workload: "cluster", addr: "http://x", direct: "http://y", mix: "K8/pc", n: 4, runs: 2})
}

// TestPromHistogramP99 checks the bucket interpolation against a
// hand-built exposition.
func TestPromHistogramP99(t *testing.T) {
	text := []byte(strings.Join([]string{
		`fam_bucket{stage="encode",le="0.001"} 90`,
		`fam_bucket{stage="encode",le="0.01"} 100`,
		`fam_bucket{stage="encode",le="+Inf"} 100`,
		`fam_bucket{stage="other",le="+Inf"} 5`,
	}, "\n"))
	p99, ok := promHistogramP99(text, "fam", "stage", "encode")
	if !ok {
		t.Fatal("no histogram found")
	}
	// target = 99 of 100; bucket (0.001, 0.01] holds counts 90..100, so
	// p99 interpolates 90% into it.
	want := 0.001 + 0.9*(0.01-0.001)
	if p99 < want-1e-9 || p99 > want+1e-9 {
		t.Fatalf("p99 = %v, want %v", p99, want)
	}
	if _, ok := promHistogramP99(text, "fam", "stage", "missing"); ok {
		t.Fatal("matched a label set that does not exist")
	}
}
