package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/api"
)

// campaignRequest is a small sweep exercising every check over one
// processor, quick enough for an endpoint test.
func campaignRequest() api.CampaignRequest {
	return api.CampaignRequest{
		Seed:       5,
		Programs:   3,
		Processors: []string{"K8"},
		Runs:       3,
		Scale:      1,
		InferEvery: 2,
		PlanEvery:  3,
	}
}

func TestCampaignEndpoints(t *testing.T) {
	srv := newTestServer(t)
	created := create[api.CampaignCreated](t, srv.URL+"/campaigns", campaignRequest())
	if created.ID == "" || created.Config.Programs != 3 || created.Config.Confidence != 0.95 {
		t.Fatalf("created = %+v", created)
	}

	// The stream runs to completion: program events, a summary, a done
	// end event — and zero findings against stock models.
	lines := readStream(t, srv.URL+"/campaigns/"+created.ID+"/stream")
	programs := 0
	var ev api.CampaignEvent
	for _, line := range lines {
		ev = api.CampaignEvent{}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		switch ev.Type {
		case api.CampaignEventFinding:
			t.Errorf("finding against stock models: %+v", *ev.Finding)
		case api.CampaignEventProgram:
			programs++
		}
	}
	if programs != 3 {
		t.Errorf("stream has %d program events, want 3", programs)
	}
	if ev.Type != api.CampaignEventEnd || ev.Reason != "done" {
		t.Errorf("stream ends with %+v", ev)
	}
	wantGauges(t, srv.URL, "campaigns", 0, 1)

	// Replay determinism over HTTP: a late attach receives the complete
	// byte-identical stream.
	replay := readStream(t, srv.URL+"/campaigns/"+created.ID+"/stream")
	if !bytes.Equal(bytes.Join(lines, nil), bytes.Join(replay, nil)) {
		t.Error("stream replay differs from the live stream")
	}

	// The snapshot agrees with the stream.
	status, body := do(t, http.MethodGet, srv.URL+"/campaigns/"+created.ID)
	var snap api.CampaignSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || status != http.StatusOK || snap.State != "done" || snap.Programs != 3 || snap.FindingsTotal != 0 {
		t.Errorf("snapshot: status %d, %v, %+v", status, err, snap)
	}

	// Delete forgets the ID.
	if status, _ := do(t, http.MethodDelete, srv.URL+"/campaigns/"+created.ID); status != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", status)
	}
	wantUnknown(t, srv.URL+"/campaigns/"+created.ID, `{"error":"campaign: no such campaign: `+created.ID+`"}`+"\n")
	wantGauges(t, srv.URL, "campaigns", 0, 0)
}

func TestCampaignEndpointRejects(t *testing.T) {
	srv := newTestServer(t)
	if status, body := post(t, srv.URL+"/campaigns", api.CampaignRequest{Runs: 1}); status != http.StatusBadRequest {
		t.Errorf("invalid campaign: status %d body %s", status, body)
	}
	wantUnknown(t, srv.URL+"/campaigns/c99", `{"error":"campaign: no such campaign: c99"}`+"\n")
}

// TestHealthzCampaignOverlay: a completed campaign leaves the active
// count at zero; the field is present in the health shape.
func TestHealthzCampaignOverlay(t *testing.T) {
	srv := newTestServer(t)
	created := create[api.CampaignCreated](t, srv.URL+"/campaigns", campaignRequest())
	readStream(t, srv.URL+"/campaigns/"+created.ID+"/stream") // wait for completion
	var h api.HealthResponse
	if _, body := do(t, http.MethodGet, srv.URL+"/healthz"); json.Unmarshal([]byte(body), &h) != nil || h.ActiveCampaigns != 0 {
		t.Errorf("healthz %s, want activeCampaigns 0", body)
	}
}
