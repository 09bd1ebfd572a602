package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// clusterMode drives a pcfront cluster and proves the cluster contract
// from the client side: every response body must be byte-identical to
// a direct single-node answer. The mixed rotation is fired at the
// front; then every request is fired once at the -direct node as a
// reference shot, and the determinism map compares the bodies byte for
// byte. The report adds the routing view (attempts, hedges, fleet
// state from the front's /healthz) and the encode-stage share of the
// direct node's /measure p99 — the measurement behind the
// pooled-encoder decision in docs/CLUSTER.md.
func clusterMode(o options) (*mode, error) {
	if o.direct == "" {
		return nil, errNoDirect
	}
	shots, err := mixedShots(o, false)
	if err != nil {
		return nil, err
	}
	m := &mode{
		noun:  "requests",
		waves: [][]shot{shots, references(shots)},
		agree: "byte-identity: %d distinct requests, every cluster response byte-identical to direct",
	}
	var answered, multiAttempt, hedged, retried int
	byBackend := make(map[string]int)
	attemptDist := make(map[int]int)
	m.check = func(out *outcome) error {
		if out.ref {
			return nil
		}
		answered++
		attempts, _ := strconv.Atoi(out.header.Get(api.HeaderAttempts))
		attemptDist[attempts]++
		if attempts > 1 {
			multiAttempt++
		}
		if out.header.Get(api.HeaderHedged) == "true" {
			hedged++
		} else if attempts > 1 {
			retried++
		}
		if backend := out.header.Get(api.HeaderBackend); backend != "" {
			byBackend[backend]++
		}
		return nil
	}
	m.extra = func(w io.Writer) {
		fmt.Fprintf(w, "cluster:     front=%s direct=%s\n", o.addr, o.direct)
		fmt.Fprintf(w, "routing:     %d multi-attempt, %d hedge-won (from response headers)\n", multiAttempt, hedged)
		if answered > 0 {
			fmt.Fprintf(w, "hedge rate:  %.1f%% (%d/%d); retry rate: %.1f%% (%d/%d)\n",
				100*float64(hedged)/float64(answered), hedged, answered,
				100*float64(retried)/float64(answered), retried, answered)
		}
		// Per-backend distribution of winning responses, and how many
		// attempts requests took — both from the X-Pcfront-* headers, so
		// this is the client's view of the routing policy, not the
		// front's.
		if len(byBackend) > 0 {
			var parts []string
			for _, name := range slices.Sorted(maps.Keys(byBackend)) {
				parts = append(parts, fmt.Sprintf("%s=%d", name, byBackend[name]))
			}
			fmt.Fprintf(w, "backends:    %s (winner per response)\n", strings.Join(parts, " "))
		}
		if len(attemptDist) > 0 {
			var parts []string
			for _, a := range slices.Sorted(maps.Keys(attemptDist)) {
				parts = append(parts, fmt.Sprintf("%dx%d", attemptDist[a], a))
			}
			fmt.Fprintf(w, "attempts:    %s (requests x attempts)\n", strings.Join(parts, " "))
		}
		reportFleet(w, o.addr)
		reportEncodeShare(w, o.direct)
	}
	return m, nil
}

// errNoDirect rejects a cluster workload without its oracle.
var errNoDirect = errors.New("-cluster needs -direct, the single pcserved node to cross-check against")

// references returns one reference shot per distinct request: the
// direct node computes each answer independently, and determinism
// makes it the oracle for the whole fleet.
func references(shots []shot) []shot {
	var refs []shot
	seen := make(map[string]bool)
	for _, s := range shots {
		if !seen[s.key] {
			seen[s.key] = true
			s.ref = true
			refs = append(refs, s)
		}
	}
	return refs
}

// reportFleet prints the front's view of its backends (states, hedge
// and retry engagement) from GET /healthz. Best-effort: a scrape
// failure is reported, never fatal.
func reportFleet(w io.Writer, frontAddr string) {
	_, body, err := call(http.DefaultClient, frontAddr+"/healthz", nil)
	var h api.ClusterHealthResponse
	if err == nil {
		err = json.Unmarshal(body, &h)
	}
	if err != nil {
		fmt.Fprintf(w, "fleet:       (healthz unavailable: %v)\n", err)
		return
	}
	states := make([]string, len(h.Nodes))
	for i, n := range h.Nodes {
		states[i] = fmt.Sprintf("%s=%s(%dreq,%derr)", n.Name, n.State, n.Requests, n.Errors)
	}
	fmt.Fprintf(w, "fleet:       %s; status=%s hedged=%d hedge-wins=%d retried=%d\n",
		strings.Join(states, " "), h.Status, h.Hedged, h.HedgeWins, h.Retried)
}

// reportEncodeShare scrapes a pcserved node's /metrics and reports the
// encode stage's p99 as a share of the /measure endpoint's p99 — the
// measurement the pooled-encoder decision rests on (docs/CLUSTER.md:
// ship one only if serialization exceeds ~10% of the request budget).
// Best-effort: a node without traffic or an unreachable /metrics just
// reports why.
func reportEncodeShare(w io.Writer, addr string) {
	_, text, err := call(http.DefaultClient, addr+"/metrics", nil)
	if err != nil {
		fmt.Fprintf(w, "encode share: (metrics unreachable: %v)\n", err)
		return
	}
	encodeP99, eok := promHistogramP99(text, "pcserved_stage_duration_seconds", "stage", "encode")
	measureP99, mok := promHistogramP99(text, "pcserved_http_request_duration_seconds", "endpoint", "/measure")
	if !eok || !mok || measureP99 <= 0 {
		fmt.Fprintf(w, "encode share: (no /measure traffic recorded on %s)\n", addr)
		return
	}
	share := encodeP99 / measureP99
	verdict := "below the ~10% pooled-encoder threshold; stock encoding stays"
	if share > 0.10 {
		verdict = "above the ~10% threshold; consider the pooled encoder (docs/CLUSTER.md)"
	}
	fmt.Fprintf(w, "encode share: encode p99 %.3gs / measure p99 %.3gs = %.1f%% — %s\n",
		encodeP99, measureP99, share*100, verdict)
}

// promHistogramP99 computes an upper-bound p99 from a Prometheus
// histogram's cumulative buckets in text exposition: the smallest
// bucket boundary covering 99% of observations, linearly interpolated
// within the bucket. It reads the family's _bucket samples whose label
// key has the given value.
func promHistogramP99(text []byte, family, key, value string) (float64, bool) {
	fams, err := telemetry.ParseExposition(bytes.NewReader(text))
	if err != nil {
		return 0, false
	}
	type bucket struct{ le, count float64 }
	var buckets []bucket
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != family+"_bucket" {
				continue
			}
			labels := make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				labels[l.Key] = l.Value
			}
			le, err := strconv.ParseFloat(labels["le"], 64)
			if labels[key] == value && err == nil {
				buckets = append(buckets, bucket{le: le, count: s.Value})
			}
		}
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count // +Inf bucket is cumulative total
	if total == 0 {
		return 0, false
	}
	target := 0.99 * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= target {
			if math.IsInf(b.le, 1) { // no upper bound to interpolate to
				return prevLe, true
			}
			if b.count == prevCount {
				return b.le, true
			}
			frac := (target - prevCount) / (b.count - prevCount)
			return prevLe + frac*(b.le-prevLe), true
		}
		prevLe, prevCount = b.le, b.count
	}
	return buckets[len(buckets)-1].le, true
}
