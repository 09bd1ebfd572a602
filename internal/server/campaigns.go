package server

import (
	"context"
	"net/http"

	"repro/internal/api"
	"repro/internal/campaign"
)

// registerCampaignRoutes wires the adversarial counter-validation
// endpoints:
//
//	POST   /campaigns             api.CampaignRequest -> api.CampaignCreated
//	GET    /campaigns/{id}        -> api.CampaignSnapshot
//	GET    /campaigns/{id}/stream -> NDJSON api.CampaignEvent lines
//	DELETE /campaigns/{id}        -> 204
func registerCampaignRoutes(mux router, creg *campaign.Registry) {
	mux.HandleFunc("POST /campaigns", handleJSON(http.StatusCreated,
		func(_ context.Context, req api.CampaignRequest) (api.CampaignCreated, error) {
			camp, err := creg.Open(req)
			if err != nil {
				return api.CampaignCreated{}, err
			}
			return api.CampaignCreated{ID: camp.ID, Config: camp.Config()}, nil
		}))
	registerItemRoutes(mux, "/campaigns", creg.Registry, (*campaign.Campaign).Snapshot)
}
