package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestParseExpositionBasics(t *testing.T) {
	in := `# HELP reqs_total Requests served.
# TYPE reqs_total counter
reqs_total{endpoint="/measure"} 4
reqs_total{endpoint="/plan"} 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.01"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 0.05
lat_seconds_count 3
bare_untyped 42
`
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3: %+v", len(fams), fams)
	}
	if fams[0].Name != "reqs_total" || fams[0].Type != "counter" || fams[0].Help != "Requests served." {
		t.Fatalf("family 0: %+v", fams[0])
	}
	if len(fams[0].Samples) != 2 || fams[0].Samples[0].Labels[0].Value != "/measure" {
		t.Fatalf("family 0 samples: %+v", fams[0].Samples)
	}
	// Histogram suffixes all attribute to the declared base family.
	if fams[1].Name != "lat_seconds" || len(fams[1].Samples) != 4 {
		t.Fatalf("family 1: %+v", fams[1])
	}
	if fams[1].Samples[3].Name != "lat_seconds_count" || fams[1].Samples[3].Value != 3 {
		t.Fatalf("family 1 count sample: %+v", fams[1].Samples[3])
	}
	// Undeclared samples land in an untyped family of their own.
	if fams[2].Name != "bare_untyped" || fams[2].Type != "untyped" || fams[2].Samples[0].Value != 42 {
		t.Fatalf("family 2: %+v", fams[2])
	}
}

func TestParseExpositionSpecialValues(t *testing.T) {
	in := "x_sumish NaN\ny_bound{le=\"+Inf\"} 0\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if !math.IsNaN(fams[0].Samples[0].Value) {
		t.Fatalf("NaN value parsed as %v", fams[0].Samples[0].Value)
	}
	if fams[1].Samples[0].Labels[0].Value != "+Inf" {
		t.Fatalf("label: %+v", fams[1].Samples[0].Labels)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"name{k=\"v\" 1\n",       // unterminated label set
		"name{k=\"v\\\"} 1\n",    // escape eats the closing quote
		"name{k=v\"} 1\n",        // missing opening quote
		"name{k=\"v\"} notnum\n", // bad value
		"name\n",                 // no value
	} {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition(%q) accepted garbage", in)
		}
	}
}

func TestMergerSumsAndLabelsGauges(t *testing.T) {
	m := NewMerger()
	for _, node := range []struct {
		name string
		text string
	}{
		{"n1:7001", "# HELP reqs_total R.\n# TYPE reqs_total counter\nreqs_total{endpoint=\"/measure\"} 4\n# HELP workers W.\n# TYPE workers gauge\nworkers{state=\"idle\"} 2\n# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"+Inf\"} 3\nlat_seconds_sum 0.5\nlat_seconds_count 3\n"},
		{"n2:7002", "# HELP reqs_total R.\n# TYPE reqs_total counter\nreqs_total{endpoint=\"/measure\"} 6\n# HELP workers W.\n# TYPE workers gauge\nworkers{state=\"idle\"} 5\n# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"+Inf\"} 1\nlat_seconds_sum 0.25\nlat_seconds_count 1\n"},
	} {
		fams, err := ParseExposition(strings.NewReader(node.text))
		if err != nil {
			t.Fatalf("parse %s: %v", node.name, err)
		}
		m.Add(node.name, fams)
	}

	var b strings.Builder
	m.Write(NewExpo(&b))
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total R.",
		"# TYPE reqs_total counter",
		`reqs_total{endpoint="/measure"} 10`,        // summed across nodes
		`workers{state="idle",backend="n1:7001"} 2`, // gauges stay per-node
		`workers{state="idle",backend="n2:7002"} 5`,
		`lat_seconds_bucket{le="+Inf"} 4`, // histograms sum by le
		"lat_seconds_sum 0.75",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, out)
		}
	}
	// The merged document must itself re-parse cleanly.
	if _, err := ParseExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("merged output does not re-parse: %v\n%s", err, out)
	}
}

func TestMergerLabelOrderBlind(t *testing.T) {
	m := NewMerger()
	a, _ := ParseExposition(strings.NewReader("# TYPE t counter\nt{a=\"1\",b=\"2\"} 1\n"))
	b2, _ := ParseExposition(strings.NewReader("# TYPE t counter\nt{b=\"2\",a=\"1\"} 1\n"))
	m.Add("x", a)
	m.Add("y", b2)
	var b strings.Builder
	m.Write(NewExpo(&b))
	if !strings.Contains(b.String(), `t{a="1",b="2"} 2`) {
		t.Fatalf("reordered labels did not merge:\n%s", b.String())
	}
}

func TestStaticHistogram(t *testing.T) {
	var b strings.Builder
	e := NewExpo(&b)
	e.Family("sh_seconds", "static", "histogram")
	e.StaticHistogram([]float64{0.1, 1}, []uint64{2, 1, 4}, math.NaN())
	out := b.String()
	for _, want := range []string{
		`sh_seconds_bucket{le="0.1"} 2`,
		`sh_seconds_bucket{le="1"} 3`,
		`sh_seconds_bucket{le="+Inf"} 7`,
		"sh_seconds_sum NaN",
		"sh_seconds_count 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeWrite(t *testing.T) {
	r := NewRuntime("testproc")
	var b strings.Builder
	r.Write(NewExpo(&b))
	out := b.String()
	for _, want := range []string{
		"# TYPE testproc_go_goroutines gauge",
		"# TYPE testproc_go_heap_objects_bytes gauge",
		"# TYPE testproc_go_gc_pause_seconds histogram",
		"# TYPE testproc_go_sched_latency_seconds histogram",
		"testproc_build_info{go_version=",
		"# TYPE testproc_uptime_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
	// A live process has goroutines and heap.
	fams, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("runtime exposition does not parse: %v\n%s", err, out)
	}
	byName := map[string]ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if g := byName["testproc_go_goroutines"]; len(g.Samples) != 1 || g.Samples[0].Value < 1 {
		t.Fatalf("goroutines: %+v", g)
	}
	if h := byName["testproc_go_heap_objects_bytes"]; len(h.Samples) != 1 || h.Samples[0].Value <= 0 {
		t.Fatalf("heap: %+v", h)
	}
}

// TestLintExposition: the lint passes a well-formed exposition and
// rejects each defect a strict scraper would.
func TestLintExposition(t *testing.T) {
	const clean = `# HELP reqs_total Requests served.
# TYPE reqs_total counter
reqs_total{endpoint="/measure"} 4
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 0.05
lat_seconds_count 3

`
	if err := LintExposition(strings.NewReader(clean)); err != nil {
		t.Fatalf("clean exposition rejected: %v", err)
	}
	for name, in := range map[string]string{
		"duplicate TYPE":         clean + "# TYPE reqs_total gauge\n",
		"family lacks HELP":      "# TYPE up gauge\nup 1\n",
		"family lacks TYPE":      "# HELP up Up.\nup 1\n",
		"sample before its TYPE": "# HELP up Up.\nup 1\n# TYPE up gauge\n",
		"unrecognized comment":   clean + "# EOF\n",
		"suffix on a counter":    "# HELP c_total C.\n# TYPE c_total counter\nc_total_count 1\n",
		"suffix on a summary":    "# HELP rt Rt.\n# TYPE rt summary\nrt_sum 1\n",
		"malformed sample":       clean + "reqs_total{endpoint=\"/x\" 1\n",
		"whitespace-only line":   clean + " \n",
	} {
		if err := LintExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, in)
		}
	}
}
