package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRequestKeyForPath is the one table over the seven keyed paths.
// Each key is pinned as a literal string: it is both pcfront's
// placement key (X-Pcfront-Key hashes it) and, for the coalesced
// endpoints, the flight key the service joins identical in-flight work
// on, so a key that moves silently re-places and de-coalesces traffic.
func TestRequestKeyForPath(t *testing.T) {
	measure := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3}
	cases := []struct {
		path string
		req  any
		key  string
	}{
		{"/measure", measure,
			"K8|pc|loop:1000|rr|user|INSTR_RETIRED|O0|r3|s1|cfalse|tfalse"},
		{"/analyze", AnalyzeRequest{Items: []AnalyzeItem{{Measure: measure}}},
			"analyze|K8|pc|loop:1000|rr|user|INSTR_RETIRED|O0|r3|s1|cfalse|tfalse|conf0.95|mpx0|sp0|duet[]"},
		{"/plan", PlanRequest{Measure: MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"}, TargetRelWidth: 0.2},
			"plan|K8|pc|loop:400|ar|user|INSTR_RETIRED|O0|r1|s1|cfalse|tfalse|w0.2|conf0.95|hw4|p4|m256|ref2|postfalse"},
		{"/infer", InferRequest{Items: []InferItem{{Processor: "K8", Inputs: []InferInput{
			{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
			{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
		}}}},
			"inferreq|infer|K8|conf0.95|nolibfalse|in[r{INSTR_RETIRED=1000±100};r{CPU_CLK_UNHALTED=2000±400}]|c[]"},
		{"/experiment", ExperimentRequest{ID: "e1", Runs: 3, Seed: 7},
			"exp|e1|r3|s7"},
		{"/sessions", SessionRequest{Measure: measure, Steps: 8},
			"K8|pc|loop:1000|rr|user|INSTR_RETIRED|O0|r1|s1|cfalse|tfalse|n8|w8|cap1024|conf0.95|inj[]"},
		{"/campaigns", CampaignRequest{Programs: 2},
			"campaign|s1|n2|PD,CD,K8|pc|ar|mix,branch,chase,phase,probe|x3|r8|i4|p16|e1|w0.25|c0.95"},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RequestKeyForPath(tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.key {
				t.Fatalf("key moved:\n got %q\nwant %q", got, tc.key)
			}
		})
	}
}

// TestRequestKeyMatchesCoalescingKey: the key RequestKeyForPath derives
// from a raw body must be exactly the key the service coalesces on —
// Normalized().Key() of the decoded request — for every wire request
// type. A divergence here would send pcfront's placement and the
// service's coalescing to different nodes.
func TestRequestKeyMatchesCoalescingKey(t *testing.T) {
	measure := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3}
	nm, err := measure.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	session := SessionRequest{Measure: measure, Steps: 8}
	ns, err := session.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	analyze := AnalyzeRequest{Items: []AnalyzeItem{{Measure: measure}}}
	na, err := analyze.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanRequest{Measure: MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"}, TargetRelWidth: 0.2}
	np, err := plan.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	campaign := CampaignRequest{Programs: 2}
	nc, err := campaign.Normalized()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		req  any
		want string
	}{
		{"measure", "/measure", measure, nm.Key()},
		{"analyze", "/analyze", analyze, "analyze|" + na.Items[0].Key()},
		{"plan", "/plan", plan, np.Key()},
		{"experiment", "/experiment", ExperimentRequest{ID: "e1", Runs: 3, Seed: 7}, "exp|e1|r3|s7"},
		{"session", "/sessions", session, ns.SessionKey()},
		{"campaign", "/campaigns", campaign, "campaign|" + nc.Key()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RequestKeyForPath(tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("RequestKeyForPath(%s) = %q, want %q", tc.path, got, tc.want)
			}
		})
	}
}

// TestRequestKeyCanonicalization: requests that mean the same thing —
// defaults implicit vs explicit — share one key.
func TestRequestKeyCanonicalization(t *testing.T) {
	implicit := `{"processor":"K8","stack":"pc","bench":"loop:1000"}`
	explicit := fmt.Sprintf(`{"processor":"K8","stack":"pc","bench":"loop:1000","pattern":%q,"runs":%d}`, DefaultPattern, DefaultRuns)
	ki, err := RequestKeyForPath("/measure", []byte(implicit))
	if err != nil {
		t.Fatal(err)
	}
	ke, err := RequestKeyForPath("/measure", []byte(explicit))
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Fatalf("implicit and explicit defaults key differently:\n%q\n%q", ki, ke)
	}
}

// TestRequestKeyErrors: validation and decoding failures surface as
// ErrBadRequest, unknown paths are rejected.
func TestRequestKeyErrors(t *testing.T) {
	if _, err := RequestKeyForPath("/measure", []byte(`{"processor":"NOPE"}`)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid measure: err = %v, want ErrBadRequest", err)
	}
	if _, err := RequestKeyForPath("/measure", []byte(`{`)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed JSON: err = %v, want ErrBadRequest", err)
	}
	if _, err := RequestKeyForPath("/nonesuch", []byte(`{}`)); err == nil {
		t.Fatal("unknown path accepted")
	}
}

// TestDecodeKeyedTrace: the trace wish comes from the same decode as
// the key, only the four trace-capable endpoints have one, and it
// survives a body that decodes but fails validation — so a traced 400
// through pcfront still carries its trace.
func TestDecodeKeyedTrace(t *testing.T) {
	for _, tc := range []struct {
		path string
		body string
		want bool
	}{
		{"/measure", `{"trace": true, "metric": "instructions"}`, true},
		{"/measure", `{"metric": "instructions"}`, false},
		{"/measure", `{"trace": false}`, false},
		{"/measure", `{"trace": true, "processor": "NOPE"}`, true}, // invalid, still traced
		{"/measure", `{"trace": true, "runs": "three"}`, true},     // type error, still traced
		{"/analyze", `{"trace": true}`, true},
		{"/plan", `{"trace": true}`, true},
		{"/infer", `{"trace": true}`, true},
		{"/sessions", `{"trace": true}`, false}, // not trace-capable
		{"/measure", `not json`, false},
		{"/measure", ``, false},
		{"/nonesuch", `{"trace": true}`, false},
	} {
		if _, got, _ := DecodeKeyed(tc.path, []byte(tc.body)); got != tc.want {
			t.Errorf("DecodeKeyed(%q, %q) trace = %v, want %v", tc.path, tc.body, got, tc.want)
		}
	}
}

func TestClusterStatusFrom(t *testing.T) {
	front := ClusterHealthResponse{
		Status: "degraded",
		Nodes: []ClusterNode{
			{Name: "a:7001", State: NodeHealthy},
			{Name: "b:7002", State: NodeUnhealthy},
			{Name: "c:7003", State: NodeDraining},
		},
	}
	health := map[string]*HealthResponse{
		"a:7001": {Status: "ok"},
	}
	errs := map[string]string{
		"b:7002": "connection refused",
	}
	doc := ClusterStatusFrom(front, health, errs)
	if doc.Front.Status != "degraded" || len(doc.Backends) != 3 {
		t.Fatalf("doc: %+v", doc)
	}
	a := doc.Backends[0]
	if !a.Reachable || a.Health == nil || a.Health.Status != "ok" || a.Error != "" {
		t.Fatalf("row a: %+v", a)
	}
	b := doc.Backends[1]
	if b.Reachable || b.Health != nil || b.Error != "connection refused" {
		t.Fatalf("row b: %+v", b)
	}
	c := doc.Backends[2]
	if c.Reachable || c.Error != "unreachable" || c.Node.State != NodeDraining {
		t.Fatalf("row c: %+v", c)
	}
}
