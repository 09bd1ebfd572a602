package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
)

func TestBuildEnginePairs(t *testing.T) {
	m, err := engineMode(options{mix: "K8/pc,CD/pc", n: 16, runs: 2, seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.waves[0]) != 32 {
		t.Fatalf("shots = %d, want 16 pairs", len(m.waves[0]))
	}
	// The two engines of a pair are interleaved and share one identity.
	for i := 0; i < len(m.waves[0]); i += 2 {
		interp, compiled := m.waves[0][i], m.waves[0][i+1]
		if interp.key != compiled.key ||
			!bytes.Contains(interp.body, []byte(api.EngineInterpreter)) ||
			!bytes.Contains(compiled.body, []byte(api.EngineCompiled)) {
			t.Errorf("pair %d not pinned interpreter/compiled under one key:\n%s\n%s", i/2, interp.body, compiled.body)
		}
	}
	if _, err := engineMode(options{mix: "garbage", n: 4, runs: 1, seeds: 1}); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := engineMode(options{mix: "K8/pc", n: 4, runs: 1}); err == nil {
		t.Error("zero seeds accepted")
	}
}

// TestRunEngineAgainstBackend drives the cross-engine workload against
// a real node: every interpreter/compiled pair must come back
// byte-identical under concurrent load.
func TestRunEngineAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "engine", addr: srv.URL, mix: "K8/pc,CD/pc", n: 12, c: 4, runs: 2, seeds: 4})
	wantLines(t, report, "engine pairs, interpreter and compiled byte-identical")
}

// TestFireEngineClearsEcho checks the normalization that makes the two
// engines' responses comparable: the echoed selector must not leak into
// the compared body.
func TestFireEngineClearsEcho(t *testing.T) {
	srv := newNode(t)
	m, err := engineMode(options{mix: "K8/pc", n: 1, runs: 1, seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := fire(srv.Client(), srv.URL, m.waves[0][0])
	if o.err != nil || o.status != http.StatusOK {
		t.Fatalf("fire: err=%v status=%d", o.err, o.status)
	}
	if err := m.check(&o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(o.cmp, api.EngineInterpreter) {
		t.Fatalf("normalized body still names the engine:\n%s", o.cmp)
	}
}
