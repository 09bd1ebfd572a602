package api

import (
	"fmt"
	"strings"

	"repro/internal/accuracy"
	"repro/internal/cpu"
)

// Limits of the /analyze endpoint.
const (
	// MaxAnalyzeItems bounds the batch size of one analyze request.
	MaxAnalyzeItems = 64
	// MaxMpxEvents bounds the events a multiplexed item may estimate.
	// Multiplexing exists to exceed the hardware counter count, so the
	// cap is deliberately above every model's NumProgrammable.
	MaxMpxEvents = 16
	// MinSamplingPeriod and MaxSamplingPeriod bound the overflow period
	// of a sampling analysis; very short periods interrupt on nearly
	// every event and would let one item monopolize a worker.
	MinSamplingPeriod = 100
	MaxSamplingPeriod = 1_000_000_000
	// MinConfidence and MaxConfidence bound an item's requested
	// two-sided confidence level.
	MinConfidence = 0.5
	MaxConfidence = 0.999
)

// AnalyzeItem is one analysis in a batch: a measurement plus the error
// models to evaluate on it.
type AnalyzeItem struct {
	// Measure is the configuration to analyze. Its calibrate flag is
	// ignored: analysis always consults the calibration cache, because
	// overhead subtraction is one of the correction terms.
	Measure MeasureRequest `json:"measure"`
	// Confidence is the two-sided confidence level of every interval in
	// the result (0 means accuracy.DefaultConfidence, 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// MpxCounters, when positive, measures the events by multiplexing
	// them onto this many hardware counters instead of dedicated
	// counting; Events may then exceed the model's counter count (up to
	// MaxMpxEvents).
	MpxCounters int `json:"mpxCounters,omitempty"`
	// SamplingPeriod, when positive, additionally estimates the first
	// event's count with the sampling usage model at this overflow
	// period.
	SamplingPeriod int64 `json:"samplingPeriod,omitempty"`
	// Duet, when set, is the paired configuration B: the service
	// interleaves A and B run pairs on one pooled system and reports
	// the delta distribution of their counter-0 errors (only the first
	// event of each configuration is measured for the pairing). B must
	// live on the same shard (processor, stack, TSC) as Measure; its
	// runs and seed are forced to Measure's so pairs align one-to-one.
	Duet *MeasureRequest `json:"duet,omitempty"`
}

// AnalyzeRequest is the batch body of POST /analyze.
type AnalyzeRequest struct {
	Items []AnalyzeItem `json:"items"`
	// Trace asks for a span trace on the response. Stripped by
	// Normalized (the canonical batch is trace-free), so traced and
	// untraced items share coalescing keys.
	Trace bool `json:"trace,omitempty"`
}

// Normalized validates the item and makes every default explicit.
func (it AnalyzeItem) Normalized() (AnalyzeItem, error) {
	if it.Confidence == 0 {
		it.Confidence = accuracy.DefaultConfidence
	}
	if it.Confidence < MinConfidence || it.Confidence > MaxConfidence {
		return it, badf("api: confidence %v out of range %v-%v", it.Confidence, MinConfidence, MaxConfidence)
	}
	// Calibration is implied by analysis; canonicalize the flag away so
	// equivalent items coalesce.
	it.Measure.Calibrate = false

	if it.MpxCounters > 0 {
		// Multiplexed items may request more events than the model has
		// counters — that is the point of multiplexing — so the event
		// list is validated here against the looser MaxMpxEvents bound
		// and bypasses Normalized's per-counter check.
		model, err := cpu.ModelByTag(it.Measure.Processor)
		if err != nil {
			return it, badf("api: bad processor %q (want PD, CD, or K8)", it.Measure.Processor)
		}
		if it.MpxCounters > model.NumProgrammable {
			return it, badf("api: %d multiplex counters exceed the %d programmable counters of %s",
				it.MpxCounters, model.NumProgrammable, model.Tag)
		}
		events := it.Measure.Events
		if len(events) == 0 {
			events = []string{DefaultEvent}
		}
		if len(events) > MaxMpxEvents {
			return it, badf("api: %d events exceed the multiplex limit %d", len(events), MaxMpxEvents)
		}
		canonical := make([]string, len(events))
		for i, name := range events {
			ev, err := cpu.EventByName(name)
			if err != nil {
				return it, badf("api: %v", err)
			}
			if !cpu.SupportsEvent(model.Arch, ev) {
				return it, badf("api: event %s not supported on %s", ev, model.Arch)
			}
			canonical[i] = ev.String()
		}
		it.Measure.Events = []string{DefaultEvent}
		norm, err := it.Measure.Normalized()
		if err != nil {
			return it, err
		}
		norm.Events = canonical
		it.Measure = norm
	} else {
		norm, err := it.Measure.Normalized()
		if err != nil {
			return it, err
		}
		it.Measure = norm
	}
	if it.MpxCounters < 0 {
		return it, badf("api: multiplex counter count %d must not be negative", it.MpxCounters)
	}

	if it.SamplingPeriod != 0 &&
		(it.SamplingPeriod < MinSamplingPeriod || it.SamplingPeriod > MaxSamplingPeriod) {
		return it, badf("api: sampling period %d out of range %d-%d",
			it.SamplingPeriod, MinSamplingPeriod, MaxSamplingPeriod)
	}

	if it.Duet != nil {
		d := *it.Duet
		// Pairs must align one-to-one with the primary's runs.
		d.Runs = it.Measure.Runs
		d.Seed = it.Measure.Seed
		d.Calibrate = false
		norm, err := d.Normalized()
		if err != nil {
			return it, fmt.Errorf("%w (duet)", err)
		}
		if norm.ShardKey() != it.Measure.ShardKey() {
			return it, badf("api: duet pair must share a shard: %s vs %s",
				norm.ShardKey(), it.Measure.ShardKey())
		}
		it.Duet = &norm
	}
	return it, nil
}

// Key returns the canonical identity of a normalized item, used for
// coalescing identical in-flight analyses.
func (it AnalyzeItem) Key() string {
	duet := ""
	if it.Duet != nil {
		duet = it.Duet.Key()
	}
	return fmt.Sprintf("%s|conf%v|mpx%d|sp%d|duet[%s]",
		it.Measure.Key(), it.Confidence, it.MpxCounters, it.SamplingPeriod, duet)
}

// Normalized validates the batch and every item in it.
func (r AnalyzeRequest) Normalized() (AnalyzeRequest, error) {
	items, err := normalizeItems("analyze", r.Items, MaxAnalyzeItems)
	if err != nil {
		return r, err
	}
	return AnalyzeRequest{Items: items}, nil
}

// Key is a normalized batch's identity: its item keys in order.
func (r AnalyzeRequest) Key() string { return itemsKey(r.Items) }

// normalizeItems validates an analyze or infer batch: non-empty,
// within max, and every item normalized, the first failing item named
// by its index.
func normalizeItems[T interface{ Normalized() (T, error) }](kind string, items []T, max int) ([]T, error) {
	if len(items) == 0 {
		return nil, badf("api: %s request has no items", kind)
	}
	if len(items) > max {
		return nil, badf("api: %d items exceed the batch limit %d", len(items), max)
	}
	out := make([]T, len(items))
	for i, it := range items {
		norm, err := it.Normalized()
		if err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
		out[i] = norm
	}
	return out, nil
}

// itemsKey joins a normalized batch's item keys in order.
func itemsKey[T interface{ Key() string }](items []T) string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key()
	}
	return strings.Join(keys, ";")
}

// TermInfo is one named correction term on the wire.
type TermInfo struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// EstimateInfo is a corrected estimate with its confidence interval —
// the accuracy annotation attached to measurement responses and the
// unit of every /analyze result.
type EstimateInfo struct {
	// Event names the estimated event.
	Event string `json:"event,omitempty"`
	// Raw is the uncorrected point estimate.
	Raw float64 `json:"raw"`
	// Corrected is Raw with all correction terms applied; pure
	// uncertainty terms (mpx-extrapolation) shift nothing and only
	// widen the interval (see accuracy.Term).
	Corrected float64 `json:"corrected"`
	// Lo and Hi bound Corrected at Confidence.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Confidence is the interval's two-sided level.
	Confidence float64 `json:"confidence"`
	// StdErr is the standard error behind the interval.
	StdErr float64 `json:"stdErr"`
	// N is the observation count.
	N int `json:"n"`
	// Terms names the corrections applied.
	Terms []TermInfo `json:"terms,omitempty"`
}

// EstimateInfoFrom converts an accuracy.Estimate to its wire form.
func EstimateInfoFrom(event string, e accuracy.Estimate) EstimateInfo {
	info := EstimateInfo{
		Event:      event,
		Raw:        e.Raw,
		Corrected:  e.Corrected,
		Lo:         e.CI.Lo,
		Hi:         e.CI.Hi,
		Confidence: e.Confidence,
		StdErr:     e.StdErr,
		N:          e.N,
	}
	for _, t := range e.Terms {
		info.Terms = append(info.Terms, TermInfo{Name: t.Name, Value: t.Value})
	}
	return info
}

// DuetInfo reports a paired-measurement analysis on the wire.
type DuetInfo struct {
	// Request echoes the normalized paired configuration B.
	Request MeasureRequest `json:"request"`
	// Deltas is the per-pair counter-0 error difference A_i - B_i.
	Deltas []float64 `json:"deltas"`
	// Mean is the duet estimate of the error difference A - B.
	Mean float64 `json:"mean"`
	// Lo and Hi bound Mean at the item's confidence.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// VarPaired and VarIndependent compare the paired delta variance
	// with Var(A)+Var(B), what two independent runs would have given.
	VarPaired      float64 `json:"varPaired"`
	VarIndependent float64 `json:"varIndependent"`
	// Cancellation is the fraction of independent-run variance the
	// pairing removed (1 - VarPaired/VarIndependent).
	Cancellation float64 `json:"cancellation"`
}

// AnalyzeResult is one item's analysis.
type AnalyzeResult struct {
	// Item echoes the normalized item served.
	Item AnalyzeItem `json:"item"`
	// Expected is the benchmark's analytical ground-truth count.
	Expected int64 `json:"expected"`
	// Counting is the counting-model estimate per event (absent for
	// multiplexed items, whose estimates are in Multiplexed).
	Counting []EstimateInfo `json:"counting,omitempty"`
	// Multiplexed is the time-interpolated estimate per event for items
	// with MpxCounters > 0.
	Multiplexed []EstimateInfo `json:"multiplexed,omitempty"`
	// Sampling is the sampling-model estimate of the first event for
	// items with SamplingPeriod > 0.
	Sampling *EstimateInfo `json:"sampling,omitempty"`
	// Calibration reports the cached overhead estimate the counting
	// corrections used.
	Calibration *CalibrationInfo `json:"calibration,omitempty"`
	// Duet reports the paired analysis for items with Duet set.
	Duet *DuetInfo `json:"duet,omitempty"`
}

// AnalyzeResponse is the batch response of POST /analyze, with Results
// in item order.
type AnalyzeResponse struct {
	Results []AnalyzeResult `json:"results"`
	// Trace is the opt-in span trace of the whole batch (request field
	// "trace": true); item spans carry an "item" annotation. Strip it
	// and the body is byte-identical to the untraced response.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// String renders a compact one-line view of an estimate, used by CLI
// reports and docs examples.
func (e EstimateInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.1f", e.Event, e.Corrected)
	fmt.Fprintf(&b, " [%.1f, %.1f]@%g", e.Lo, e.Hi, e.Confidence)
	for _, t := range e.Terms {
		fmt.Fprintf(&b, " %s=%.1f", t.Name, t.Value)
	}
	return b.String()
}
