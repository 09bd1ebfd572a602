package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// traced reports whether the shot opted into tracing.
func traced(s shot) bool { return bytes.Contains(s.body, []byte(`"trace":true`)) }

// twins returns the mixed rotation untraced and its traced twins, each
// twin under its untraced request's identity so the determinism map
// compares their stripped bodies. The twins go in a later wave: a
// twin in flight beside its untraced request would coalesce with it
// and trace only its wait.
func twins(o options) (plain, tracedShots []shot, err error) {
	if plain, err = mixedShots(o, false); err != nil {
		return nil, nil, err
	}
	tracedShots, _ = mixedShots(o, true)
	for i := range plain {
		tracedShots[i].key = plain[i].key
	}
	return plain, tracedShots, nil
}

// stripTrace sets the answer's compared body to the response with the
// top-level "trace" key removed and returns that trace block; an
// untraced answer must not carry one. Go's map marshaling sorts keys,
// so two bodies that agree on everything but the trace block compare
// equal byte-for-byte after this.
func stripTrace(out *outcome) (*api.TraceInfo, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out.body, &m); err != nil {
		return nil, fmt.Errorf("%s: unmarshal response: %w", out.path, err)
	}
	var trace *api.TraceInfo
	if raw, ok := m["trace"]; ok {
		if !traced(out.shot) {
			return nil, fmt.Errorf("%s: untraced response carries a trace block", out.path)
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			return nil, fmt.Errorf("%s: unmarshal trace block: %w", out.path, err)
		}
		delete(m, "trace")
	}
	stripped, err := json.Marshal(m)
	out.cmp = string(stripped)
	return trace, err
}

// catalogue returns a span catalogue as a set.
func catalogue(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, name := range names {
		set[name] = true
	}
	return set
}

// checkSpans asserts a trace block has spans, every one drawn from the
// catalogue and with a non-negative duration.
func checkSpans(what string, tr *api.TraceInfo, cat map[string]bool) error {
	if tr == nil || len(tr.Spans) == 0 {
		return fmt.Errorf("%s has no spans", what)
	}
	for _, sp := range tr.Spans {
		if !cat[sp.Name] {
			return fmt.Errorf("%s: span %q not in its catalogue", what, sp.Name)
		}
		if sp.DurationNs < 0 {
			return fmt.Errorf("%s: span %q has negative duration", what, sp.Name)
		}
	}
	return nil
}

// traceMode drives the mixed rotation as traced+untraced pairs: the
// traced response must carry a span block drawn from the telemetry
// catalogue, the untraced one must not, and the two bodies must be
// byte-identical once the trace block is stripped — the client-side
// check of the observability contract (docs/OBSERVABILITY.md).
func traceMode(o options) (*mode, error) {
	plain, tracedShots, err := twins(o)
	if err != nil {
		return nil, err
	}
	m := &mode{
		noun:  "requests",
		waves: [][]shot{plain, tracedShots},
		agree: "trace:       all pairs byte-identical after stripping the trace block (%d distinct requests)",
	}
	nodeCat := catalogue(telemetry.SpanNames())
	spans := 0
	m.check = func(out *outcome) error {
		tr, err := stripTrace(out)
		if err != nil || !traced(out.shot) {
			return err
		}
		if err := checkSpans(out.path+" trace", tr, nodeCat); err != nil {
			return err
		}
		spans += len(tr.Spans)
		return nil
	}
	m.extra = func(w io.Writer) {
		fmt.Fprintf(w, "spans:       %d across all traced responses\n", spans)
	}
	return m, nil
}

// clusterTraceMode drives the mixed rotation as stitched-trace checks
// through a pcfront cluster: a traced and an untraced request through
// the front, plus a traced reference request to the direct node,
// asserting that
//
//   - the stitched tree carries the front's route and forward spans,
//     every one drawn from the front span catalogue, with the origin
//     naming the proxy;
//   - the backend subtree is present, catalogued, and shape-identical
//     to the direct node's own trace — the proxied trace is the direct
//     trace with the cluster tier stacked on top, nothing rewritten;
//   - stripping the trace block yields bodies byte-identical across
//     traced/untraced and front/direct — tracing never perturbs the
//     answer, and the cluster contract survives the trace rewrite.
func clusterTraceMode(o options) (*mode, error) {
	if o.direct == "" {
		return nil, errNoDirect
	}
	plain, tracedShots, err := twins(o)
	if err != nil {
		return nil, err
	}
	m := &mode{
		noun:  "requests",
		waves: [][]shot{plain, tracedShots, references(tracedShots)},
		agree: "stitching:   every tree carries route+forward spans and a backend subtree shape-identical to the direct node (%d distinct requests)",
	}
	frontCat, nodeCat := catalogue(telemetry.FrontSpanNames()), catalogue(telemetry.SpanNames())
	frontSpans := 0
	m.check = func(out *outcome) error {
		tr, err := stripTrace(out)
		switch {
		case err != nil || !traced(out.shot):
			return err
		case out.ref:
			if tr == nil {
				return fmt.Errorf("%s: direct traced response has no trace block", out.path)
			}
			out.shape = tr.Shape()
			return nil
		}
		if err := checkSpans(out.path+" stitched tree", tr, frontCat); err != nil {
			return err
		}
		if tr.Origin == "" {
			return fmt.Errorf("%s: stitched tree names no origin", out.path)
		}
		has := func(name string) bool {
			return slices.ContainsFunc(tr.Spans, func(sp api.SpanInfo) bool { return sp.Name == name })
		}
		if !has(telemetry.SpanRoute) || !has(telemetry.SpanForward) {
			return fmt.Errorf("%s: stitched tree missing route/forward spans", out.path)
		}
		frontSpans += len(tr.Spans)
		var sub api.TraceInfo
		if len(tr.Backend) == 0 || json.Unmarshal(tr.Backend, &sub) != nil {
			return fmt.Errorf("%s: stitched tree has no decodable backend subtree", out.path)
		}
		// The subtree's shape joins the determinism map next to the
		// body, so it must equal the direct node's trace shape.
		out.shape = sub.Shape()
		return checkSpans(out.path+" backend subtree", &sub, nodeCat)
	}
	m.extra = func(w io.Writer) {
		fmt.Fprintf(w, "cluster:     front=%s direct=%s\n", o.addr, o.direct)
		fmt.Fprintf(w, "front spans: %d across all stitched trees\n", frontSpans)
	}
	return m, nil
}
