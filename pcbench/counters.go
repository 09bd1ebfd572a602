package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// counters is one snapshot of the program's own cumulative counters,
// summed over the fleet's nodes.
type counters struct {
	leaders, followers       float64 // pcserved_coalesce_total, every endpoint
	calHits, calMisses       float64
	cacheHits, cacheMisses   float64
	evictions, engineRuns    float64
	encodeSum, encodeCount   float64 // encode stage histogram
	retried, hedged, proxied float64 // the front's view
}

// sub returns c - base field by field.
func (c counters) sub(base counters) counters {
	return counters{
		leaders: c.leaders - base.leaders, followers: c.followers - base.followers,
		calHits: c.calHits - base.calHits, calMisses: c.calMisses - base.calMisses,
		cacheHits: c.cacheHits - base.cacheHits, cacheMisses: c.cacheMisses - base.cacheMisses,
		evictions: c.evictions - base.evictions, engineRuns: c.engineRuns - base.engineRuns,
		encodeSum: c.encodeSum - base.encodeSum, encodeCount: c.encodeCount - base.encodeCount,
		retried: c.retried - base.retried, hedged: c.hedged - base.hedged, proxied: c.proxied - base.proxied,
	}
}

// getJSON decodes a GET response body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads every node's /healthz and /metrics, and the front's
// /cluster/healthz when there is one.
func scrape(client *http.Client, f *fleet) (counters, error) {
	var c counters
	for _, nd := range f.nodes {
		var h api.HealthResponse
		if err := getJSON(client, nd.ln.base+"/healthz", &h); err != nil {
			return c, err
		}
		c.calHits += float64(h.Stats.CalibrationHits)
		c.calMisses += float64(h.Stats.CalibrationMisses)
		c.cacheHits += float64(h.Engines.CompileCacheHits)
		c.cacheMisses += float64(h.Engines.CompileCacheMisses)
		c.evictions += float64(h.Engines.CompileCacheEvictions)
		c.engineRuns += float64(h.Engines.CompiledRuns + h.Engines.InterpreterRuns)

		resp, err := client.Get(nd.ln.base + "/metrics")
		if err != nil {
			return c, err
		}
		fams, err := telemetry.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("parsing %s/metrics: %w", nd.ln.base, err)
		}
		for _, fam := range fams {
			for _, s := range fam.Samples {
				switch {
				case s.Name == "pcserved_coalesce_total" && label(s, "role") == "leader":
					c.leaders += s.Value
				case s.Name == "pcserved_coalesce_total" && label(s, "role") == "follower":
					c.followers += s.Value
				case s.Name == "pcserved_stage_duration_seconds_sum" && label(s, "stage") == "encode":
					c.encodeSum += s.Value
				case s.Name == "pcserved_stage_duration_seconds_count" && label(s, "stage") == "encode":
					c.encodeCount += s.Value
				}
			}
		}
	}
	if f.front == nil {
		return c, nil
	}
	var st api.ClusterStatusResponse
	if err := getJSON(client, f.base+"/cluster/healthz", &st); err != nil {
		return c, err
	}
	c.retried = float64(st.Front.Retried)
	c.hedged = float64(st.Front.Hedged)
	for _, n := range st.Front.Nodes {
		c.proxied += float64(n.Requests)
	}
	return c, nil
}

// label returns the value of a sample's label.
func label(s telemetry.ParsedSample, key string) string {
	for _, a := range s.Labels {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
