package api

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/accuracy"
	"repro/internal/bayes"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// Limits and defaults of the /infer endpoint.
const (
	// MaxInferItems bounds the batch size of one infer request.
	MaxInferItems = 64
	// MaxInferInputs bounds the events one item may infer over.
	MaxInferInputs = 16
	// MaxInferConstraints bounds the explicit constraints of one item
	// (the built-in library rides on top, already bounded by the event
	// vocabulary).
	MaxInferConstraints = 64
	// DefaultInferRuns is the replication of a measured infer input when
	// the request leaves it zero: inference needs an observed dispersion,
	// so the single-run default of /measure would be degenerate.
	DefaultInferRuns = 8
)

// InferTerm is one addend of a constraint: Coef times the event's
// count. It is the wire spelling of bayes.Term.
type InferTerm = bayes.Term

// InferConstraint is one linear invariant over named events. It is the
// wire spelling of bayes.Constraint: ops are "=", "<=", ">=" (">=" is
// canonicalized to "<=" by negation).
type InferConstraint = bayes.Constraint

// InferInput is one event's evidence: either a raw Gaussian estimate
// (Event, Mean, Variance — produced by any upstream error model), or a
// measurement the service performs (Measure — the estimate is then the
// calibrated accuracy annotation of the response). Exactly one of the
// two forms per input.
type InferInput struct {
	// Event names the estimated event. Required for raw inputs; for
	// measured inputs it defaults to the measurement's first event and
	// must match it when set.
	Event string `json:"event,omitempty"`
	// Mean and Variance carry a raw input's Gaussian. Variance zero
	// marks an exact observation, which the solver holds fixed.
	Mean     float64 `json:"mean,omitempty"`
	Variance float64 `json:"variance,omitempty"`
	// Measure, when set, asks the service to produce the estimate: the
	// request is normalized with Runs defaulted to DefaultInferRuns and
	// calibration forced on when counter 0 counts retired instructions
	// (the event the null calibration estimates overhead for) and off
	// otherwise, and the input becomes the response's accuracy
	// annotation — mean Corrected, variance StdErr².
	Measure *MeasureRequest `json:"measure,omitempty"`
}

// InferItem is one joint inference in a batch: a set of per-event
// inputs plus the invariants tying them together.
type InferItem struct {
	// Inputs is the evidence, one entry per distinct event.
	Inputs []InferInput `json:"inputs"`
	// Constraints are explicit invariants over the input events.
	Constraints []InferConstraint `json:"constraints,omitempty"`
	// Processor selects the built-in invariant library (PD, CD, K8) —
	// the library's width bound depends on the model. Defaults to the
	// first measured input's processor; when empty (all-raw item with no
	// processor named) no library is applied.
	Processor string `json:"processor,omitempty"`
	// NoLibrary disables the built-in invariant library even when a
	// processor is known, leaving only the explicit constraints.
	NoLibrary bool `json:"noLibrary,omitempty"`
	// Confidence is the two-sided level of every reported interval
	// (0 means accuracy.DefaultConfidence).
	Confidence float64 `json:"confidence,omitempty"`
}

// InferRequest is the batch body of POST /infer.
type InferRequest struct {
	Items []InferItem `json:"items"`
	// Trace asks for a span trace on the response. Stripped by
	// Normalized (the canonical batch is trace-free), so traced and
	// untraced items share coalescing keys.
	Trace bool `json:"trace,omitempty"`
}

// Normalized validates the input and makes every default explicit.
func (in InferInput) Normalized() (InferInput, error) {
	if in.Measure == nil {
		if in.Event == "" {
			return in, badf("api: raw infer input needs an event name")
		}
		if err := validInferEvent(in.Event); err != nil {
			return in, err
		}
		if math.IsNaN(in.Mean) || math.IsInf(in.Mean, 0) {
			return in, badf("api: non-finite mean %v for %s", in.Mean, in.Event)
		}
		if math.IsNaN(in.Variance) || math.IsInf(in.Variance, 0) || in.Variance < 0 {
			return in, badf("api: bad variance %v for %s (want finite, non-negative)", in.Variance, in.Event)
		}
		return in, nil
	}
	if in.Mean != 0 || in.Variance != 0 {
		return in, badf("api: infer input mixes a raw estimate with a measurement")
	}
	m := *in.Measure
	// A single run has no observable dispersion, so default the
	// replication up before the standard normalization.
	if m.Runs == 0 {
		m.Runs = DefaultInferRuns
	}
	if m.Runs < 2 {
		return in, badf("api: measured infer input needs at least 2 runs (got %d)", m.Runs)
	}
	norm, err := m.Normalized()
	if err != nil {
		return in, err
	}
	// Inference consumes the response's accuracy annotation, which is
	// overhead-corrected only when calibrated. The null-benchmark
	// calibration estimates the *instruction count* the harness adds,
	// so it applies exactly when counter 0 counts retired instructions
	// — forced on there, forced off elsewhere (subtracting an
	// instruction overhead from, say, a branch-miss count would push
	// small counts negative). Canonicalizing the flag keeps equivalent
	// inputs coalescing.
	norm.Calibrate = norm.Events[0] == DefaultEvent
	if in.Event != "" && in.Event != norm.Events[0] {
		return in, badf("api: infer input event %q does not match the measurement's first event %s",
			in.Event, norm.Events[0])
	}
	in.Event = norm.Events[0]
	in.Measure = &norm
	return in, nil
}

// validInferEvent rejects event names that could collide with the
// canonical key syntax. Raw inputs may name events outside the ISA
// vocabulary (upstream estimates of anything), so this is a syntactic
// allowlist, not a registry lookup — and it must be an allowlist:
// the item Key embeds event names between delimiter characters, so a
// name free to contain those delimiters could forge another item's
// key and be served that item's coalesced response.
func validInferEvent(name string) error {
	if len(name) > 64 {
		return badf("api: event name %q too long (max 64)", name)
	}
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z', r >= 'a' && r <= 'z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
		default:
			return badf("api: bad event name %q (want letters, digits, _ . -)", name)
		}
	}
	return nil
}

// Normalized validates the item and makes every default explicit: raw
// inputs checked, measured inputs normalized with calibration forced,
// the processor inherited from the first measurement, and every
// constraint rewritten to canonical form (terms merged and sorted,
// ">=" flipped to "<="). The canonical form's Key is the coalescing
// identity of the item.
func (it InferItem) Normalized() (InferItem, error) {
	if it.Confidence == 0 {
		it.Confidence = accuracy.DefaultConfidence
	}
	if it.Confidence < MinConfidence || it.Confidence > MaxConfidence {
		return it, badf("api: confidence %v out of range %v-%v", it.Confidence, MinConfidence, MaxConfidence)
	}
	if len(it.Inputs) == 0 {
		return it, badf("api: infer item has no inputs")
	}
	if len(it.Inputs) > MaxInferInputs {
		return it, badf("api: %d inputs exceed the limit %d", len(it.Inputs), MaxInferInputs)
	}
	inputs := make([]InferInput, len(it.Inputs))
	seen := make(map[string]bool, len(it.Inputs))
	for i, in := range it.Inputs {
		norm, err := in.Normalized()
		if err != nil {
			return it, fmt.Errorf("input %d: %w", i, err)
		}
		if seen[norm.Event] {
			return it, badf("api: duplicate infer input for event %s", norm.Event)
		}
		seen[norm.Event] = true
		inputs[i] = norm
	}
	it.Inputs = inputs

	if it.Processor == "" {
		for _, in := range it.Inputs {
			if in.Measure != nil {
				it.Processor = in.Measure.Processor
				break
			}
		}
	}
	if it.Processor != "" {
		if _, err := cpu.ModelByTag(it.Processor); err != nil {
			return it, badf("api: bad processor %q (want PD, CD, or K8)", it.Processor)
		}
	}
	if it.NoLibrary && it.Processor == "" {
		it.NoLibrary = false // no processor means no library: canonicalize the no-op away
	}

	if len(it.Constraints) > MaxInferConstraints {
		return it, badf("api: %d constraints exceed the limit %d", len(it.Constraints), MaxInferConstraints)
	}
	if len(it.Constraints) > 0 {
		canon := make([]InferConstraint, len(it.Constraints))
		for i, c := range it.Constraints {
			cc, err := c.Canonical()
			if err != nil {
				return it, badf("api: constraint %d: %v", i, err)
			}
			for _, term := range cc.Terms {
				if !seen[term.Event] {
					return it, badf("api: constraint %d references event %s with no input", i, term.Event)
				}
			}
			canon[i] = cc
		}
		it.Constraints = canon
	}
	return it, nil
}

// Key returns the canonical identity of a normalized item, used for
// coalescing identical in-flight inferences.
func (it InferItem) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "infer|%s|conf%v|nolib%v|in[", it.Processor, it.Confidence, it.NoLibrary)
	for i, in := range it.Inputs {
		if i > 0 {
			b.WriteString(";")
		}
		if in.Measure != nil {
			fmt.Fprintf(&b, "m{%s}", in.Measure.Key())
		} else {
			fmt.Fprintf(&b, "r{%s=%v±%v}", in.Event, in.Mean, in.Variance)
		}
	}
	b.WriteString("]|c[")
	for i, c := range it.Constraints {
		if i > 0 {
			b.WriteString(";")
		}
		// Name and linear form both matter: the name is echoed in the
		// response, the form is the math. The name is user-controlled
		// free text, so it is length-prefixed — an unframed name could
		// embed the key's own delimiters and forge another item's key.
		fmt.Fprintf(&b, "%d:%s:", len(c.Name), c.Name)
		for _, term := range c.Terms {
			fmt.Fprintf(&b, "%+g*%s", term.Coef, term.Event)
		}
		fmt.Fprintf(&b, "%s%g", c.Op, c.RHS)
	}
	b.WriteString("]")
	return b.String()
}

// Model assembles the item's full constraint model: the built-in
// library (unless disabled) restricted to the input events, plus the
// explicit constraints.
func (it InferItem) Model() (bayes.Model, error) {
	events := make([]string, len(it.Inputs))
	for i, in := range it.Inputs {
		events[i] = in.Event
	}
	var m bayes.Model
	if it.Processor != "" && !it.NoLibrary {
		model, err := cpu.ModelByTag(it.Processor)
		if err != nil {
			return m, badf("api: bad processor %q", it.Processor)
		}
		m = bayes.Library(model).Restrict(events)
	}
	m.Constraints = append(m.Constraints, it.Constraints...)
	return m, nil
}

// Normalized validates the batch and every item in it.
func (r InferRequest) Normalized() (InferRequest, error) {
	items, err := normalizeItems("infer", r.Items, MaxInferItems)
	if err != nil {
		return r, err
	}
	return InferRequest{Items: items}, nil
}

// Key is a normalized batch's identity: its item keys in order.
func (r InferRequest) Key() string { return itemsKey(r.Items) }

// EstimateInfoFromMoments assembles the wire estimate from first and
// second moments at a confidence level: the shared shape of every
// posterior estimate the inference layer emits (/infer results and
// /plan posterior fusion). When the mean moved off raw, the shift is
// recorded as a constraint-fusion term, like every other correction
// (Corrected = Raw - term value).
func EstimateInfoFromMoments(event string, raw, mean, variance, confidence float64, n int) EstimateInfo {
	z := stats.NormalQuantile(0.5 + confidence/2)
	se := math.Sqrt(variance)
	info := EstimateInfo{
		Event:      event,
		Raw:        raw,
		Corrected:  mean,
		Lo:         mean - z*se,
		Hi:         mean + z*se,
		Confidence: confidence,
		StdErr:     se,
		N:          n,
	}
	if raw != mean {
		info.Terms = []TermInfo{{Name: accuracy.TermConstraintFusion, Value: raw - mean}}
	}
	return info
}

// ResidualInfo is one constraint's consistency verdict on the wire:
// how far the inputs are from satisfying the invariant, in raw units
// and in standard errors of the constraint function — the
// event-validation report attached to every inference.
type ResidualInfo struct {
	// Constraint names the invariant (canonical form).
	Constraint string `json:"constraint"`
	// Value is lhs - rhs at the input means.
	Value float64 `json:"value"`
	// Sigma standardizes Value by the constraint's prior standard error.
	Sigma float64 `json:"sigma"`
	// Violated flags inputs breaking the invariant beyond
	// bayes.ViolationSigma standard errors.
	Violated bool `json:"violated"`
}

// InferResult is one item's joint posterior.
type InferResult struct {
	// Item echoes the normalized item served.
	Item InferItem `json:"item"`
	// Events lists the inferred events in input order; Prior and
	// Posterior align with it.
	Events []string `json:"events"`
	// Prior is the per-event input estimate (measured inputs carry the
	// response's accuracy annotation).
	Prior []EstimateInfo `json:"prior"`
	// Posterior is the constraint-conditioned estimate. Its interval is
	// never wider than Prior's — constraints add information, never
	// noise.
	Posterior []EstimateInfo `json:"posterior"`
	// Residuals reports every constraint's consistency at the inputs.
	Residuals []ResidualInfo `json:"residuals,omitempty"`
	// Active names the constraints that contributed conditioning (all
	// equalities plus the inequalities the projection landed on).
	Active []string `json:"active,omitempty"`
	// Consistent reports that no residual was flagged violated.
	Consistent bool `json:"consistent"`
	// Tightening is the mean per-event interval reduction,
	// 1 - posterior/prior half-width (events with degenerate prior
	// intervals excluded).
	Tightening float64 `json:"tightening"`
}

// InferResponse is the batch response of POST /infer, with Results in
// item order.
type InferResponse struct {
	Results []InferResult `json:"results"`
	// Trace is the opt-in span trace of the whole batch (request field
	// "trace": true); item spans carry an "item" annotation. Strip it
	// and the body is byte-identical to the untraced response.
	Trace *TraceInfo `json:"trace,omitempty"`
}
