package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/stack"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		differs := false
		for i := 0; i < 500; i++ {
			ra, rb, rc := a.at(i), b.at(i), c.at(i)
			if ra.kind != rb.kind || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: entry %d differs between two streams of seed 7", name, i)
			}
			if !bytes.Equal(ra.body, rc.body) {
				differs = true
			}
			// Regenerating an entry gives the same bytes.
			if !bytes.Equal(ra.body, a.at(i).body) {
				t.Fatalf("%s: entry %d is not a pure function of its index", name, i)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

func TestStreamsAreValidRequests(t *testing.T) {
	for _, name := range workloadNames {
		wl, _ := newWorkload(name, 1)
		seen := make(map[kind]bool)
		for i := 0; i < 200; i++ {
			r := wl.at(i)
			seen[r.kind] = true
			if _, err := api.RequestKeyForPath(r.kind.path(), r.body); err != nil {
				t.Fatalf("%s #%d: %v: %s", name, i, err, r.body)
			}
			if wl.pairs && i%2 == 1 && !bytes.Equal(r.body, wl.at(i-1).body) {
				t.Fatalf("%s #%d is not a copy of #%d", name, i, i-1)
			}
		}
		for _, k := range wl.kinds {
			if !seen[k] {
				t.Errorf("%s never sends %s", name, k)
			}
		}
	}
}

func TestMeasureStreamsDoNotRepeat(t *testing.T) {
	for _, name := range []string{"measure-hot", "measure-gen"} {
		wl, _ := newWorkload(name, 1)
		keys := make(map[string]int)
		for i := 0; i < 2000; i++ {
			key, err := api.RequestKeyForPath("/measure", wl.at(i).body)
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := keys[key]; dup {
				t.Fatalf("%s: entries %d and %d coalesce", name, j, i)
			}
			keys[key] = i
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 999 .. 1, unsorted
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 1000)
	p99, err := tailPercentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank 990 of 1..1000 is 990, with 10 samples beyond it.
	if p99 != 990 {
		t.Fatalf("p99 = %v, want 990", p99)
	}
	if xs[0] != 999 {
		t.Fatal("tailPercentile reordered the caller's samples")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	// Three windows of 1000: the window medians are 500.5, 1500.5 and
	// 2500.5, the window p99s 990, 1990 and 2990; 500 leftover samples
	// are dropped.
	var seq []float64
	for i := 1; i <= 3500; i++ {
		seq = append(seq, float64(i))
	}
	p50, p99, windows, err := windowed(seq, 0.99)
	if err != nil || windows != 3 || p50 != 1500.5 || p99 != 990 {
		t.Fatalf("windowed = %v, %v, %d windows, %v", p50, p99, windows, err)
	}
	if _, _, _, err := windowed(seq[:999], 0.99); err == nil {
		t.Fatal("fewer samples than one window must be refused")
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	// A session that is created but whose stream ends without its end
	// event is a short stream.
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"s1","config":{}}`))
			return
		}
		w.Write([]byte(`{"type":"sample"}` + "\n"))
	}))
	defer short.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	client := newClient()
	measure := request{kind: kindMeasure, body: []byte(`{}`)}
	outs := []outcome{
		fire(client, refusing.URL, measure),
		fire(client, dead, measure),
		fire(client, short.URL, request{kind: kindSession, body: []byte(`{}`)}),
	}
	for i, o := range outs {
		if o.ok {
			t.Fatalf("outcome %d counted as a success", i)
		}
		if !math.IsInf(o.sample(), 1) {
			t.Fatalf("outcome %d latency sample %v, want +Inf", i, o.sample())
		}
	}
	p := &phase{outcomes: outs}
	if a, f := p.counts(); a != 3 || f != 3 {
		t.Fatalf("counts = %d attempted %d failed, want 3 and 3", a, f)
	}
	// With 20 failures among 1010 requests, more than 1% missed every
	// limit, so the p99 is a miss too.
	for i := 0; i < 990; i++ {
		p.outcomes = append(p.outcomes, outcome{kind: kindMeasure, ok: true, latency: time.Millisecond})
	}
	for i := 0; i < 18; i++ {
		p.outcomes = append(p.outcomes, outcome{kind: kindMeasure})
	}
	p99, err := tailPercentile(p.byKind(kindMeasure), 0.99)
	if err != nil || !math.IsInf(p99, 1) {
		t.Fatalf("p99 = %v (%v), want +Inf", p99, err)
	}
	if finite(math.Inf(1)) != math.MaxFloat64 {
		t.Fatal("an infinite latency must be reported as the largest finite number")
	}
}

// recordingInfra is a core.Infrastructure that records the calls it
// receives and answers from fixed values.
type recordingInfra struct {
	core.Infrastructure
	calls    *[]string
	setupErr error
}

func (r recordingInfra) Setup(specs []core.CounterSpec) error {
	*r.calls = append(*r.calls, "Setup")
	return r.setupErr
}

func (r recordingInfra) NumCounters() int {
	*r.calls = append(*r.calls, "NumCounters")
	return 3
}

// recordingRunner is a cpu.Runner that records its program.
type recordingRunner struct {
	got *isa.Program
	err error
}

func (r *recordingRunner) Name() string { return "recording" }

func (r *recordingRunner) RunProgram(c *cpu.Core, p *isa.Program) error {
	r.got = p
	return r.err
}

func TestWrappersDelegateExactly(t *testing.T) {
	var calls []string
	boom := errors.New("boom")
	p := &probe{epoch: time.Now()}
	w := timedInfra{Infrastructure: recordingInfra{calls: &calls, setupErr: boom}, p: p}
	if err := w.Setup(nil); err != boom {
		t.Fatalf("Setup returned %v, want the inner error", err)
	}
	if n := w.NumCounters(); n != 3 {
		t.Fatalf("NumCounters = %d, want 3", n)
	}
	if !reflect.DeepEqual(calls, []string{"Setup", "NumCounters"}) {
		t.Fatalf("inner calls = %v", calls)
	}
	inner := &recordingRunner{err: boom}
	r := timedRunner{Runner: inner, p: p}
	prog := &isa.Program{Name: "x"}
	if err := r.RunProgram(nil, prog); err != boom || inner.got != prog {
		t.Fatalf("RunProgram returned %v with program %v", err, inner.got)
	}
	if r.Name() != "recording" {
		t.Fatalf("Name = %q", r.Name())
	}
	if p.marks[markSetupEnd] < p.marks[markSetupStart] || p.marks[markRunEnd] < p.marks[markRunStart] {
		t.Fatalf("marks out of order: %v", p.marks)
	}
}

func TestWrappedMeasureEqualsUnwrapped(t *testing.T) {
	model, _ := cpu.ModelByTag("K8")
	for _, code := range []string{"pc", "PHpm"} {
		sys, err := stack.New(model, code, stack.Options{WithTSC: true, Governor: kernel.Performance})
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplayer()
		body := marshal(api.MeasureRequest{Processor: "K8", Stack: code, Bench: "gen:v1:probe:9:8", Runs: 3, Seed: 5})
		if err := rp.replay(body, nil, true); err != nil {
			t.Fatal(err)
		}
		if len(rp.mismatches) != 0 || rp.times.calls != 3 || rp.allocs.calls != 3 {
			t.Fatalf("%s: mismatches %v, %d timed and %d allocation calls", code, rp.mismatches, rp.times.calls, rp.allocs.calls)
		}
		// The replay reproduces what the node serves: the same deltas
		// as a direct unwrapped measurement.
		var req api.MeasureRequest
		json.Unmarshal(body, &req)
		norm, _ := req.Normalized()
		creq, _ := norm.Build()
		sys.Reset()
		creq.Seed = norm.Seed
		m, err := sys.Measure(creq)
		if err != nil {
			t.Fatal(err)
		}
		served := marshal(api.MeasureResponse{Deltas: [][]int64{m.Deltas}})
		one := newReplayer()
		norm.Runs = 1
		if err := one.replay(marshal(norm), served, false); err != nil || len(one.mismatches) != 0 {
			t.Fatalf("%s: replay disagrees with a direct measurement: %v %v", code, err, one.mismatches)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []api.SpanInfo{
		{Name: "outer", StartNs: 0, DurationNs: 100},
		{Name: "a", StartNs: 10, DurationNs: 20},
		{Name: "b", StartNs: 20, DurationNs: 30}, // overlaps a: union 10..50
		{Name: "later", StartNs: 200, DurationNs: 5},
	}
	self, union := selfTimes(spans)
	if self["outer"] != 60 || self["a"] != 20 || self["b"] != 30 || self["later"] != 5 {
		t.Fatalf("self times %v", self)
	}
	if union != 105 {
		t.Fatalf("union = %d, want 105", union)
	}
}
