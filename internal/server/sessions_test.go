package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
)

func sessionBody() api.SessionRequest {
	return api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:      24,
		WindowSize: 8,
	}
}

// create POSTs a session or campaign request and decodes the 201 answer.
func create[T any](t *testing.T, url string, req any) (created T) {
	t.Helper()
	status, body := post(t, url, req)
	if status != http.StatusCreated || json.Unmarshal(body, &created) != nil {
		t.Fatalf("POST %s: status %d, body %s", url, status, body)
	}
	return created
}

// openSession creates a session and returns its ID.
func openSession(t *testing.T, base string, req api.SessionRequest) string {
	t.Helper()
	created := create[api.SessionCreated](t, base+"/sessions", req)
	if created.ID == "" || created.Config.Steps != req.Steps {
		t.Fatalf("unexpected creation response: %+v", created)
	}
	return created.ID
}

// readStream consumes a session or campaign NDJSON stream to its end
// event and returns every line.
func readStream(t *testing.T, url string) [][]byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream status = %d, content type %q", resp.StatusCode, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) == 0 {
		t.Fatalf("reading stream: %q, %v", body, err)
	}
	return bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// do sends a bodiless request and returns the status and body.
func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, string(body)
}

// wantUnknown checks that GET, stream and DELETE of an unknown ID all
// answer 404 with the registry's exact error body.
func wantUnknown(t *testing.T, url, body string) {
	t.Helper()
	for _, req := range [][2]string{{http.MethodGet, url}, {http.MethodGet, url + "/stream"}, {http.MethodDelete, url}} {
		if status, got := do(t, req[0], req[1]); status != http.StatusNotFound || got != body {
			t.Errorf("%s %s = %d %q, want 404 %q", req[0], req[1], status, got, body)
		}
	}
}

// wantGauges checks the active and retained gauges /metrics exports
// for resource ("sessions" or "campaigns").
func wantGauges(t *testing.T, base, resource string, active, retained int) {
	t.Helper()
	_, text := do(t, http.MethodGet, base+"/metrics")
	for name, want := range map[string]int{"active": active, "retained": retained} {
		if line := fmt.Sprintf("\npcserved_%s_%s %d\n", resource, name, want); !strings.Contains(text, line) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestSessionLifecycleOverHTTP drives create -> snapshot -> stream ->
// delete through the production routing.
func TestSessionLifecycleOverHTTP(t *testing.T) {
	srv := newTestServer(t)
	id := openSession(t, srv.URL, sessionBody())

	lines := readStream(t, srv.URL+"/sessions/"+id+"/stream")
	var last api.StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != api.StreamEnd || last.Reason != api.SessionDone {
		t.Errorf("final event = %s, want end/done", lines[len(lines)-1])
	}
	wantGauges(t, srv.URL, "sessions", 0, 1)

	status, body := do(t, http.MethodGet, srv.URL+"/sessions/"+id)
	var snap api.SessionSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || status != http.StatusOK {
		t.Fatalf("snapshot: status %d, %v", status, err)
	}
	if snap.ID != id || snap.State != api.SessionDone || snap.Total != 24 {
		t.Errorf("snapshot = id %s state %s total %d, want %s/done/24", snap.ID, snap.State, snap.Total, id)
	}
	if len(snap.Windows) != 3 {
		t.Errorf("snapshot has %d windows, want 3", len(snap.Windows))
	}
	if snap.Calibration == nil {
		t.Error("snapshot missing calibration info")
	}

	if status, _ := do(t, http.MethodDelete, srv.URL+"/sessions/"+id); status != http.StatusNoContent {
		t.Errorf("DELETE status = %d, want 204", status)
	}
	wantUnknown(t, srv.URL+"/sessions/"+id, `{"error":"monitor: no such session: `+id+`"}`+"\n")
	wantGauges(t, srv.URL, "sessions", 0, 0)
}

// TestIdenticalSessionsStreamIdenticalNDJSON is the acceptance
// criterion at the HTTP layer: two sessions created from the same
// body stream byte-identical sample series.
func TestIdenticalSessionsStreamIdenticalNDJSON(t *testing.T) {
	srv := newTestServer(t)
	idA := openSession(t, srv.URL, sessionBody())
	idB := openSession(t, srv.URL, sessionBody())
	a := bytes.Join(readStream(t, srv.URL+"/sessions/"+idA+"/stream"), []byte("\n"))
	b := bytes.Join(readStream(t, srv.URL+"/sessions/"+idB+"/stream"), []byte("\n"))
	if !bytes.Equal(a, b) {
		t.Fatalf("streams diverge:\n  a: %s\n  b: %s", a, b)
	}
}

// TestSessionStreamCarriesDrift checks an injected step change
// surfaces as a drift event on the wire.
func TestSessionStreamCarriesDrift(t *testing.T) {
	srv := newTestServer(t)
	body := sessionBody()
	body.Steps = 32
	body.Inject = &api.InjectSpec{AfterStep: 16, Offset: 500_000}
	id := openSession(t, srv.URL, body)
	var drifts int
	for _, line := range readStream(t, srv.URL+"/sessions/"+id+"/stream") {
		var ev api.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == api.StreamDrift {
			drifts++
		}
	}
	if drifts == 0 {
		t.Error("no drift event on the stream despite injected step change")
	}
}

func TestSessionEndpointErrors(t *testing.T) {
	srv := newTestServer(t)
	bad := sessionBody()
	bad.WindowSize = 1
	status, _ := post(t, srv.URL+"/sessions", bad)
	if status != http.StatusBadRequest {
		t.Errorf("bad session request: status %d, want 400", status)
	}
	wantUnknown(t, srv.URL+"/sessions/nope", `{"error":"monitor: no such session: nope"}`+"\n")
}

// TestRegistryLimitsAndDrainOverHTTP holds one long session and one
// long campaign open against limits of one each: a second of either is
// refused with 503 and the registry's exact error body, both show in
// /healthz and /metrics, Server.Close drains campaigns before sessions,
// and the drained node refuses both with 503.
func TestRegistryLimitsAndDrainOverHTTP(t *testing.T) {
	node := New(Config{
		Workers:         2,
		CalibrationRuns: 5,
		Monitor:         monitor.Config{MaxSessions: 1, SweepInterval: -1},
		Campaign:        campaign.Config{MaxCampaigns: 1, SweepInterval: -1},
	})
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	long := map[string]any{
		"/sessions":  api.SessionRequest{Measure: sessionBody().Measure, Steps: 10_000, IntervalMS: 5},
		"/campaigns": api.CampaignRequest{Programs: 200, Runs: 4},
	}
	full := map[string]string{"/sessions": "monitor: too many sessions (limit 1)", "/campaigns": "campaign: too many campaigns (limit 1)"}
	closed := map[string]string{"/sessions": "monitor: registry closed", "/campaigns": "campaign: registry closed"}
	wantRefused := func(why map[string]string) {
		for path, req := range long {
			if status, body := post(t, srv.URL+path, req); status != http.StatusServiceUnavailable || string(body) != `{"error":"`+why[path]+`"}`+"\n" {
				t.Errorf("POST %s = %d %s, want 503 %q", path, status, body, why[path])
			}
		}
	}
	for path, req := range long {
		if status, body := post(t, srv.URL+path, req); status != http.StatusCreated {
			t.Fatalf("POST %s: status %d body %s", path, status, body)
		}
	}
	wantRefused(full)
	var h api.HealthResponse
	if _, body := do(t, http.MethodGet, srv.URL+"/healthz"); json.Unmarshal([]byte(body), &h) != nil || h.ActiveSessions != 1 || h.ActiveCampaigns != 1 {
		t.Errorf("healthz active sessions/campaigns = %d/%d, want 1/1", h.ActiveSessions, h.ActiveCampaigns)
	}
	wantGauges(t, srv.URL, "sessions", 1, 1)
	wantGauges(t, srv.URL, "campaigns", 1, 1)

	// Once the session's drained end event is written, the campaign must
	// already have ended.
	sess, _ := node.reg.Get("s1")
	camp, _ := node.creg.Get("c1")
	campaignFirst := make(chan bool, 1)
	go func() {
		log := sess.Log()
		for i := 0; ; {
			lines, next, wait, done := log.Events(i)
			if i = next; len(lines) == 0 && done {
				break
			} else if len(lines) == 0 {
				<-wait
			}
		}
		campaignFirst <- camp.Log().Ended()
	}()
	node.Close()
	if !<-campaignFirst {
		t.Error("Close drained a session before the campaigns")
	}
	wantRefused(closed)
}
