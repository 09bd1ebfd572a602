package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, safe for concurrent
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram of durations. Buckets hold
// per-bucket (non-cumulative) counts internally; the exposition writer
// accumulates them into the Prometheus cumulative form. Observations
// are lock-free atomic adds.
type Histogram struct {
	upper  []float64 // ascending upper bounds, seconds; +Inf implied
	counts []atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (in seconds).
func NewHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, upper))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// LogBuckets returns perDecade log-spaced upper bounds per decade from
// lo to hi inclusive (both in seconds): the standard latency bucket
// layout (docs/OBSERVABILITY.md). lo == hi degenerates to a single
// bucket, so a caller collapsing a range never has to special-case it.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi < lo || perDecade < 1 {
		panic("telemetry: bad LogBuckets parameters")
	}
	var out []float64
	ratio := math.Pow(10, 1/float64(perDecade))
	for v := lo; v < hi*(1+1e-9); v *= ratio {
		// Snap to a short decimal so bucket bounds render stably.
		out = append(out, snap(v))
	}
	return out
}

// snap rounds v to three significant figures, keeping exposition
// bucket labels short and stable across float accumulation error.
func snap(v float64) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 3, 64), 64)
	if err != nil {
		return v
	}
	return s
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.upper, sec)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// kind is the exposition TYPE of a metric family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric family with its labeled children.
type family struct {
	name string
	help string
	kind kind

	mu       sync.Mutex
	order    []string // child keys in first-seen order
	counters map[string]*Counter
	hists    map[string]*Histogram
	labels   map[string][]Annotation // child key -> label pairs
	vars     []string                // label names for vec families
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Families register once at startup; observation is
// lock-free on the hot path.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// EndpointLabel derives the endpoint metric label from a route
// pattern: the path template with the method dropped ("POST /measure"
// becomes "/measure"). Wildcards stay as templates ("/sessions/{id}"),
// so label cardinality is bounded by the route table, never by URLs.
func EndpointLabel(pattern string) string {
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) add(name, help string, k kind, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic("telemetry: duplicate metric family " + name)
	}
	f := &family{
		name: name, help: help, kind: k, vars: labelNames,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string][]Annotation),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	f *family
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.add(name, help, kindCounter, labelNames)}
}

// With returns the child counter for the given label values,
// creating it on first use. Bind children once at startup; With takes
// the family lock.
func (v *CounterVec) With(labelValues ...string) *Counter {
	f := v.f
	key := childKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.counters[key]; ok {
		return c
	}
	c := &Counter{}
	f.counters[key] = c
	f.labels[key] = pairs(f.vars, labelValues)
	f.order = append(f.order, key)
	return c
}

// HistogramVec is a histogram family keyed by label values, all
// children sharing one bucket layout.
type HistogramVec struct {
	f     *family
	upper []float64
}

// NewHistogramVec registers a histogram family with the given bucket
// upper bounds and label names.
func (r *Registry) NewHistogramVec(name, help string, upper []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.add(name, help, kindHistogram, labelNames), upper: upper}
}

// With returns the child histogram for the given label values,
// creating it on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.f
	key := childKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.hists[key]; ok {
		return h
	}
	h := NewHistogram(v.upper)
	f.hists[key] = h
	f.labels[key] = pairs(f.vars, labelValues)
	f.order = append(f.order, key)
	return h
}

func childKey(values []string) string { return strings.Join(values, "\x00") }

func pairs(names, values []string) []Annotation {
	if len(names) != len(values) {
		panic(fmt.Sprintf("telemetry: %d label values for %d label names", len(values), len(names)))
	}
	ps := make([]Annotation, len(names))
	for i := range names {
		ps[i] = Annotation{Key: names[i], Value: values[i]}
	}
	return ps
}

// WritePrometheus renders every registered family in registration
// order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	e := NewExpo(w)
	for _, f := range fams {
		f.write(e)
	}
}

func (f *family) write(e *Expo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e.Family(f.name, f.help, string(f.kind))
	for _, key := range f.order {
		switch f.kind {
		case kindHistogram:
			e.Histogram(f.hists[key], f.labels[key]...)
		default:
			e.Sample(float64(f.counters[key].Value()), f.labels[key]...)
		}
	}
}

// Expo writes Prometheus text exposition format (version 0.0.4): one
// Family header (HELP/TYPE) followed by its Sample or Histogram
// children. It is shared by the registry above and by snapshot-derived
// metrics (pcserved renders service.Stats through it), so both paths
// emit identical formatting.
type Expo struct {
	w    io.Writer
	name string
}

// NewExpo returns an exposition writer.
func NewExpo(w io.Writer) *Expo { return &Expo{w: w} }

// Family writes the HELP and TYPE header for a metric family and makes
// it current for subsequent samples.
func (e *Expo) Family(name, help, typ string) {
	e.name = name
	fmt.Fprintf(e.w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(e.w, "# TYPE %s %s\n", name, typ)
}

// Sample writes one sample of the current family.
func (e *Expo) Sample(value float64, labels ...Annotation) {
	e.sample(e.name, value, labels)
}

// NamedSample writes one sample under an explicit sample name (the
// family name plus a suffix such as _bucket/_sum/_count), bypassing the
// current-family default. The federation writer uses it to re-emit
// parsed samples whose suffixes are part of the parsed name.
func (e *Expo) NamedSample(name string, value float64, labels ...Annotation) {
	e.sample(name, value, labels)
}

// StaticHistogram writes a pre-bucketed histogram child of the current
// family in the cumulative _bucket/_sum/_count form: counts holds one
// per-bucket (non-cumulative) count per upper bound plus a final
// overflow bucket (len(upper)+1 entries). Sum may be NaN when the
// source (e.g. runtime/metrics) does not track one.
func (e *Expo) StaticHistogram(upper []float64, counts []uint64, sum float64, labels ...Annotation) {
	var cum uint64
	for i, ub := range upper {
		cum += counts[i]
		e.sample(e.name+"_bucket", float64(cum),
			append(append([]Annotation{}, labels...), Annotation{Key: "le", Value: formatFloat(ub)}))
	}
	cum += counts[len(upper)]
	e.sample(e.name+"_bucket", float64(cum),
		append(append([]Annotation{}, labels...), Annotation{Key: "le", Value: "+Inf"}))
	e.sample(e.name+"_sum", sum, labels)
	e.sample(e.name+"_count", float64(cum), labels)
}

// Histogram writes a histogram child of the current family in the
// cumulative _bucket/_sum/_count form.
func (e *Expo) Histogram(h *Histogram, labels ...Annotation) {
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		e.sample(e.name+"_bucket", float64(cum),
			append(append([]Annotation{}, labels...), Annotation{Key: "le", Value: formatFloat(ub)}))
	}
	cum += h.counts[len(h.upper)].Load()
	e.sample(e.name+"_bucket", float64(cum),
		append(append([]Annotation{}, labels...), Annotation{Key: "le", Value: "+Inf"}))
	e.sample(e.name+"_sum", float64(h.sumNs.Load())/1e9, labels)
	e.sample(e.name+"_count", float64(h.count.Load()), labels)
}

func (e *Expo) sample(name string, value float64, labels []Annotation) {
	if len(labels) == 0 {
		fmt.Fprintf(e.w, "%s %s\n", name, formatFloat(value))
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	fmt.Fprintf(e.w, "%s %s\n", b.String(), formatFloat(value))
}

// formatFloat renders integers without an exponent or trailing
// decimals and everything else with Go's shortest representation.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
