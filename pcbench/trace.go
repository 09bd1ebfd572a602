package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// spanMetric maps the program's span catalogue to per-layer metric
// names. The front's retry and hedge spans fold into
// cluster.forward_us; the rest of the catalogue never appears in a
// returned trace block.
var spanMetric = map[string]string{
	telemetry.SpanParse:        "server.parse_us",
	telemetry.SpanCanonicalize: "api.canonicalize_us",
	telemetry.SpanCoalesceWait: "service.coalesce_wait_us",
	telemetry.SpanPoolAcquire:  "service.pool_acquire_us",
	telemetry.SpanCalibrate:    "service.calibrate_us",
	telemetry.SpanEngineRun:    "service.engine_run_us",
	telemetry.SpanCorrect:      "service.correct_us",
	telemetry.SpanFuse:         "plan.fuse_us",
	telemetry.SpanInferSolve:   "bayes.infer_solve_us",
	telemetry.SpanRoute:        "cluster.route_us",
	telemetry.SpanForward:      "cluster.forward_us",
	telemetry.SpanRetry:        "cluster.forward_us",
	telemetry.SpanHedge:        "cluster.forward_us",
}

// selfTimes returns each span name's self time — its duration minus
// the part of its interval that spans inside it cover — and the
// length of the union of all spans.
func selfTimes(spans []api.SpanInfo) (self map[string]int64, union int64) {
	self = make(map[string]int64)
	for i, s := range spans {
		var inner []api.SpanInfo
		for j, c := range spans {
			if j == i || c.StartNs < s.StartNs || c.StartNs+c.DurationNs > s.StartNs+s.DurationNs {
				continue
			}
			// Of two spans with one interval, the later-listed is the
			// child, so neither hides the other.
			if c.DurationNs == s.DurationNs && c.StartNs == s.StartNs && j < i {
				continue
			}
			inner = append(inner, c)
		}
		self[s.Name] += s.DurationNs - unionLen(inner)
	}
	return self, unionLen(spans)
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []api.SpanInfo) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.StartNs, s.StartNs + s.DurationNs}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// accounting splits the traced requests' round trips into layers. Every
// field is a total in nanoseconds over the accounted requests; each
// request's round trip equals transport + front self + node handler
// time + front span self-times, and the node handler time equals its
// span self-times + server self.
type accounting struct {
	requests   int
	unmatched  int
	roundTrip  int64
	transport  int64
	frontSelf  int64
	handle     int64
	serverSelf int64
	spans      map[string]int64
}

// account matches each traced outcome with the handler times the
// wrappers recorded for its body and folds its trace block in. A
// request whose handler times cannot be matched (a hedge loser left a
// second record, or the response carried no trace) is counted as
// unmatched and left out.
func account(outs []outcome, wl *workload, f *fleet, timers *handlerTimers) *accounting {
	a := &accounting{spans: make(map[string]int64)}
	for i := range outs {
		o := &outs[i]
		if !o.ok || !o.kind.traceable() {
			continue
		}
		key := bodyKey(sha256.Sum256(withTrace(wl.at(o.idx)).body))
		var tb struct {
			Trace *api.TraceInfo `json:"trace"`
		}
		if json.Unmarshal(o.body, &tb) != nil || tb.Trace == nil {
			a.unmatched++
			continue
		}
		nodeTrace := tb.Trace
		nodeName := f.nodes[0].host
		var frontT time.Duration
		if f.front != nil {
			var ok bool
			if frontT, ok = timers.take(frontTimer, key); !ok {
				a.unmatched++
				continue
			}
			nodeName = o.backend
			nodeTrace = new(api.TraceInfo)
			if json.Unmarshal(tb.Trace.Backend, nodeTrace) != nil {
				a.unmatched++
				continue
			}
		}
		nodeT, ok := timers.take(nodeName, key)
		if !ok {
			a.unmatched++
			continue
		}
		a.requests++
		rt := o.latency.Nanoseconds()
		a.roundTrip += rt
		nself, nunion := selfTimes(nodeTrace.Spans)
		for name, ns := range nself {
			a.spans[spanMetric[name]] += ns
		}
		a.handle += nodeT.Nanoseconds()
		a.serverSelf += max(0, nodeT.Nanoseconds()-nunion)
		if f.front == nil {
			a.transport += rt - nodeT.Nanoseconds()
			continue
		}
		fself, funion := selfTimes(tb.Trace.Spans)
		for name, ns := range fself {
			a.spans[spanMetric[name]] += ns
		}
		// The winning forward span contains the node's whole handler;
		// what remains of it is the front-to-node hop.
		a.spans["cluster.forward_us"] -= nodeT.Nanoseconds()
		a.frontSelf += max(0, frontT.Nanoseconds()-funion)
		a.transport += rt - frontT.Nanoseconds()
	}
	delete(a.spans, "")
	return a
}

// perRequestUs returns a total as microseconds per accounted request.
func (a *accounting) perRequestUs(total int64) float64 {
	if a.requests == 0 {
		return 0
	}
	return float64(total) / float64(a.requests) / 1e3
}

// unaccountedShare is the part of the round trip that neither the
// benchmark's transport timing nor any program span explains: the
// handler time outside every span, on the node and on the front.
func (a *accounting) unaccountedShare() float64 {
	if a.roundTrip == 0 {
		return 0
	}
	return float64(a.serverSelf+a.frontSelf) / float64(a.roundTrip)
}
