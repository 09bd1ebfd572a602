package api

import (
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Cross-process trace propagation headers. pcfront sets HeaderTrace on
// the internal hop when the client opted into tracing; a backend seeing
// it echoes its span trace as compact JSON (a TraceInfo) in the
// HeaderTraceSpans response header. The header channel exists because
// the in-body trace block only rides success bodies: error responses
// and proxied bodies the front must not rewrite still need the span
// set to reach the stitcher.
const (
	// HeaderTrace marks a forwarded request as traced; its value is the
	// origin (pcfront instance) name.
	HeaderTrace = "X-Pc-Trace"
	// HeaderTraceSpans carries the responder's trace block as one line
	// of JSON. On a pcfront response it carries the stitched tree.
	HeaderTraceSpans = "X-Pc-Trace-Spans"
)

// SpanInfo is one finished span on the wire: a named stage of the
// request's execution with its offset from the request start and its
// duration, both in nanoseconds of monotonic time.
type SpanInfo struct {
	Name string `json:"name"`
	// StartNs is the span's start offset from the trace start.
	StartNs int64 `json:"startNs"`
	// DurationNs is the span's monotonic duration.
	DurationNs int64 `json:"durationNs"`
	// Annotations carries span notes (engine used, cache hit/miss,
	// worker shard, coalesce role) as ordered key/value pairs.
	Annotations map[string]string `json:"annotations,omitempty"`
}

// TraceInfo is the opt-in "trace" block echoed on /measure, /analyze,
// /plan, and /infer responses when the request set "trace": true. It
// rides outside the determinism contract: strip it and the remaining
// body is byte-identical to the untraced response.
type TraceInfo struct {
	// Coalesced marks the request a coalesce follower: it was served a
	// leader's response, so its spans record only its own wait, never a
	// replay of the leader's execution.
	Coalesced bool `json:"coalesced,omitempty"`
	// Origin names the process that assembled this block: empty for a
	// node answering directly, the pcfront instance name for a stitched
	// cluster trace.
	Origin string `json:"origin,omitempty"`
	// Spans lists finished spans in completion order.
	Spans []SpanInfo `json:"spans"`
	// Backend embeds the backend's echoed trace block verbatim when a
	// cluster front stitched this tree. Keeping the raw bytes — not a
	// re-decoded copy — is what makes the stitching invariant checkable:
	// stripping the front's own fields recovers the backend's trace
	// byte-for-byte.
	Backend json.RawMessage `json:"backend,omitempty"`
}

// TraceInfoFrom converts a telemetry trace to its wire form, or nil
// for a nil trace.
func TraceInfoFrom(t *telemetry.Trace) *TraceInfo {
	if t == nil {
		return nil
	}
	spans, coalesced := t.Snapshot()
	info := &TraceInfo{Coalesced: coalesced, Spans: make([]SpanInfo, len(spans))}
	for i, sd := range spans {
		si := SpanInfo{
			Name:       sd.Name,
			StartNs:    sd.Start.Nanoseconds(),
			DurationNs: sd.Duration.Nanoseconds(),
		}
		if len(sd.Annotations) > 0 {
			si.Annotations = make(map[string]string, len(sd.Annotations))
			for _, a := range sd.Annotations {
				si.Annotations[a.Key] = a.Value
			}
		}
		info.Spans[i] = si
	}
	return info
}

// Shape renders a trace's canonical structure: span names sorted and
// joined, with the backend subtree nested in angle brackets. Durations,
// offsets, and annotations are dropped, so two traces of the same
// request taken at different times (or against different nodes) compare
// equal exactly when they executed the same stages. This is the
// cross-request comparison pcload and CI use; byte-level identity is
// reserved for the one case it can hold — the stitched block embedding
// the backend's bytes verbatim.
func (t *TraceInfo) Shape() string {
	if t == nil {
		return ""
	}
	names := make([]string, len(t.Spans))
	for i, s := range t.Spans {
		names[i] = s.Name
	}
	sort.Strings(names)
	shape := "[" + strings.Join(names, " ") + "]"
	if len(t.Backend) > 0 {
		var sub TraceInfo
		if err := json.Unmarshal(t.Backend, &sub); err != nil {
			return shape + "<malformed>"
		}
		shape += "<" + sub.Shape() + ">"
	}
	return shape
}

// WithTrace returns a copy of the response carrying the trace block.
// The block is per-caller wall time, while the response itself may be
// shared by every caller of a coalesced flight.
func (r MeasureResponse) WithTrace(t *TraceInfo) *MeasureResponse { r.Trace = t; return &r }
func (r AnalyzeResponse) WithTrace(t *TraceInfo) *AnalyzeResponse { r.Trace = t; return &r }
func (r PlanResponse) WithTrace(t *TraceInfo) *PlanResponse       { r.Trace = t; return &r }
func (r InferResponse) WithTrace(t *TraceInfo) *InferResponse     { r.Trace = t; return &r }
