package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

func mustMode(m *mode, err error) *mode {
	if err != nil {
		panic(err)
	}
	return m
}

func span(name string, ns int) string { return fmt.Sprintf(`{"name":%q,"durationNs":%d}`, name, ns) }

// stitched is a front-traced body: the front's spans over a backend
// subtree holding one parse span.
func stitched(origin string, spans ...string) string {
	return `{"x":1,"trace":{"origin":"` + origin + `","spans":[` + strings.Join(spans, ",") +
		`],"backend":{"spans":[` + span("parse", 1) + `]}}}`
}

// TestChecksFailTheShot feeds every per-response assertion a body that
// violates it.
func TestChecksFailTheShot(t *testing.T) {
	plan := mustMode(planMode(options{mix: "K8/pc", n: 1}))
	infer := mustMode(inferMode(options{mix: "K8/pc", n: 6})) // shots 2-3 raw, 4-5 planted
	camp := mustMode(campaignMode(options{mix: "K8/pc", n: 2, programs: 1}))
	trace := mustMode(traceMode(options{mix: "K8/pc", n: 1, runs: 1})) // untraced, traced
	ctrace := mustMode(clusterTraceMode(options{mix: "K8/pc", n: 1, runs: 1, direct: "http://d"}))
	for _, tc := range []struct {
		name        string
		m           *mode
		s           shot
		body, lines string
		want        string
	}{
		{"fused wider than naive", plan, plan.waves[0][0], `{"attained":true,"estimates":[{"naive":{"hi":1},"fused":{"hi":2}}]}`, "", "wider than the naive"},
		{"missed CI target", plan, plan.waves[0][0], `{"attained":false}`, "", "missed"},
		{"posterior wider than prior", infer, infer.waves[0][2], `{"results":[{"consistent":true,"prior":[{"hi":1}],"posterior":[{"hi":2}]}]}`, "", "wider than the prior"},
		{"planted inconsistency missed", infer, infer.waves[0][4], `{"results":[{"consistent":true}]}`, "", "escaped"},
		{"clean item flagged", infer, infer.waves[0][2], `{"results":[{"consistent":false}]}`, "", "flagged inconsistent"},
		{"campaign finding", camp, camp.waves[0][0], `{"id":"c"}`, `{"type":"finding"}` + "\n" + `{"type":"end","reason":"done"}`, "MODEL REFUTED"},
		{"trace block without opt-in", trace, trace.waves[0][0], `{"trace":{"spans":[]}}`, "", "untraced response carries"},
		{"traced without spans", trace, trace.waves[1][0], `{"x":1}`, "", "no spans"},
		{"span outside the catalogue", trace, trace.waves[1][0], `{"trace":{"spans":[` + span("bogus", 1) + `]}}`, "", "not in its catalogue"},
		{"negative duration", trace, trace.waves[1][0], `{"trace":{"spans":[` + span("parse", -1) + `]}}`, "", "negative duration"},
		{"front trace without opt-in", ctrace, ctrace.waves[0][0], `{"trace":{"spans":[]}}`, "", "untraced response carries"},
		{"no route span", ctrace, ctrace.waves[1][0], stitched("pcfront", span("forward", 1)), "", "missing route/forward"},
		{"no forward span", ctrace, ctrace.waves[1][0], stitched("pcfront", span("route", 1)), "", "missing route/forward"},
		{"no origin", ctrace, ctrace.waves[1][0], stitched("", span("route", 1), span("forward", 1)), "", "no origin"},
		{"backend span outside the catalogue", ctrace, ctrace.waves[1][0], strings.Replace(stitched("f", span("route", 1), span("forward", 1)), `"parse"`, `"route"`, 1), "", "not in its catalogue"},
		{"direct trace missing", ctrace, ctrace.waves[2][0], `{"x":1}`, "", "no trace block"},
	} {
		o := &outcome{shot: tc.s, status: http.StatusOK, body: []byte(tc.body)}
		o.events, o.end, _ = readEvents([]byte(tc.lines))
		if err := tc.m.check(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterTraceCrossChecks: the stitched tree's backend subtree must
// match the direct trace's shape, and the stripped bodies must agree
// across traced/untraced and front/direct.
func TestClusterTraceCrossChecks(t *testing.T) {
	good := stitched("pcfront", span("route", 1), span("forward", 1))
	direct := `{"x":1,"trace":{"spans":[` + span("parse", 7) + `]}}`
	for _, tc := range []struct{ name, untraced, front, direct, want string }{
		{"consistent", `{"x":1}`, good, direct, "\nstitching:"},
		{"shape unlike direct", `{"x":1}`, good, strings.Replace(direct, "parse", "canonicalize", 1), "DETERMINISM VIOLATION"},
		{"front differs from direct", `{"x":1}`, good, strings.Replace(direct, `"x":1`, `"x":2`, 1), "DETERMINISM VIOLATION"},
		{"traced differs from untraced", `{"x":2}`, good, direct, "DETERMINISM VIOLATION"},
	} {
		m := mustMode(clusterTraceMode(options{mix: "K8/pc", n: 1, runs: 1, direct: "http://d"}))
		var outs []outcome
		for i, s := range slices.Concat(m.waves...) {
			outs = append(outs, outcome{shot: s, status: http.StatusOK, body: []byte([]string{tc.untraced, tc.front, tc.direct}[i])})
		}
		var out bytes.Buffer
		m.report(&out, outs, time.Second)
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

// TestEarlyEndedStreamsExempt: paired streams that differ fail the run
// only when both completed; a stream that ended early is a lifecycle
// outcome, not a determinism signal.
func TestEarlyEndedStreamsExempt(t *testing.T) {
	for _, tc := range []struct {
		end  string
		fail bool
	}{{"done", true}, {"deleted", false}} {
		m := mustMode(monitorMode(options{mix: "K8/pc", n: 2, steps: 4, window: 2}))
		var outs []outcome
		for i, s := range m.waves[0] {
			sample := event{Type: "sample", raw: fmt.Appendf(nil, `{"type":"sample","sample":{"seq":%d}}`, i)}
			outs = append(outs, outcome{shot: s, status: http.StatusCreated, body: []byte(`{"id":"s"}`), events: []event{sample}, end: tc.end})
		}
		var out bytes.Buffer
		if err := m.report(&out, outs, time.Second); (err != nil) != tc.fail {
			t.Errorf("end %q: err = %v, want failure %v\n%s", tc.end, err, tc.fail, out.String())
		}
	}
}
