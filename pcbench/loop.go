package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// clients is the closed loop's concurrency: the repo's real callers
// each wait for a reply before sending again, and the machine has two
// CPUs.
const clients = 2

// newClient returns the load clients' shared HTTP client: one
// transport, at most two connections to any host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// outcome is one finished stream entry.
type outcome struct {
	idx  int
	kind kind
	ok   bool
	err  string
	// latency is the client round trip; a session's runs from the POST
	// to its end event.
	latency time.Duration
	// digest identifies the answer: the body (trace block stripped on a
	// traced request), or a session's echoed config plus its stream.
	digest bodyKey
	// body is the raw response, kept when the phase asked for bodies.
	body []byte
	// Front routing headers.
	backend  string
	attempts int
	hedged   bool
	// Session split: POST latency and stream time.
	open, stream time.Duration
	// done is when the entry finished, from the start of its phase.
	done time.Duration
}

// sample is the latency the outcome contributes to its kind's
// percentiles: a failure misses every limit.
func (o *outcome) sample() float64 {
	if !o.ok {
		return failedLatency
	}
	return float64(o.latency) / 1e6
}

// phase is one closed-loop pass over a slice of the stream.
type phase struct {
	name     string
	outcomes []outcome
	elapsed  time.Duration
}

func (p *phase) counts() (attempted, failed int) {
	for i := range p.outcomes {
		attempted++
		if !p.outcomes[i].ok {
			failed++
		}
	}
	return attempted, failed
}

func (p *phase) succeeded() int {
	a, f := p.counts()
	return a - f
}

// byKind returns the latency samples (ms) of one kind in completion
// order.
func (p *phase) byKind(k kind) []float64 {
	var outs []*outcome
	for i := range p.outcomes {
		if p.outcomes[i].kind == k {
			outs = append(outs, &p.outcomes[i])
		}
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].done < outs[b].done })
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.sample()
	}
	return xs
}

// throughputBlocks is how many blocks of consecutive completions the
// phase's throughput is the median over. Short blocks (a few dozen
// milliseconds) let the median pass over bursts of time the machine
// takes from the process.
const throughputBlocks = 300

// blockThroughput is the median, over throughputBlocks blocks of
// consecutive successful completions, of each block's completion
// rate: a burst of interference from outside the process slows a few
// blocks, not the median one.
func (p *phase) blockThroughput() float64 {
	var done []time.Duration
	for i := range p.outcomes {
		if p.outcomes[i].ok {
			done = append(done, p.outcomes[i].done)
		}
	}
	size := len(done) / throughputBlocks
	if size < 2 {
		return float64(len(done)) / p.elapsed.Seconds()
	}
	slices.Sort(done)
	rates := make([]float64, 0, throughputBlocks)
	for b := 0; b+size < len(done); b += size {
		rates = append(rates, float64(size)/(done[b+size]-done[b]).Seconds())
	}
	return median(rates)
}

// stopRule ends a phase: a fixed entry range, or a minimum duration
// extended until every kind of the workload has enough samples for
// its p99, up to a cap.
type stopRule struct {
	end        int // entries [start, end); 0 for a timed phase
	minDur     time.Duration
	maxDur     time.Duration
	minSamples int
}

// runPhase drives entries from start through the closed loop until the
// rule stops it. traced sets "trace": true on trace-capable bodies;
// keep retains response bodies for which it returns true.
func runPhase(name string, client *http.Client, base string, wl *workload, start int, rule stopRule, traced bool, keep func(idx int) bool) *phase {
	var (
		next    atomic.Int64
		perKind [numKinds]atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []outcome
	)
	next.Store(int64(start))
	begin := time.Now()
	enough := func() bool {
		for _, k := range wl.kinds {
			if perKind[k].Load() < int64(rule.minSamples) {
				return false
			}
		}
		return true
	}
	stop := func(i int) bool {
		if rule.end > 0 {
			return i >= rule.end
		}
		el := time.Since(begin)
		return el >= rule.maxDur || (el >= rule.minDur && enough())
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					break
				}
				req := wl.at(i)
				if traced {
					req = withTrace(req)
				}
				out := fire(client, base, req)
				out.idx = i
				out.done = time.Since(begin)
				if !traced && (keep == nil || !keep(i)) {
					out.body = nil
				}
				perKind[out.kind].Add(1)
				local = append(local, out)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := &phase{name: name, outcomes: all, elapsed: time.Since(begin)}
	if traced {
		// Identify traced answers by their body without the trace block,
		// outside the timed loop so the client's extra decoding does not
		// count as tracing overhead.
		for i := range p.outcomes {
			o := &p.outcomes[i]
			if o.ok && o.kind.traceable() {
				if stripped, err := stripTrace(o.body); err != nil {
					o.ok, o.err = false, err.Error()
				} else {
					o.digest = sha256.Sum256(stripped)
				}
			}
			if keep == nil || !keep(o.idx) {
				o.body = nil
			}
		}
	}
	return p
}

// fire performs one stream entry and checks its transport-level
// outcome.
func fire(client *http.Client, base string, req request) outcome {
	if req.kind == kindSession {
		return fireSession(client, base, req)
	}
	out := outcome{kind: req.kind}
	start := time.Now()
	resp, err := client.Post(base+req.kind.path(), "application/json", bytes.NewReader(req.body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(start)
	out.body = body
	routing(&out, resp.Header)
	switch {
	case err != nil:
		out.err = fmt.Sprintf("reading %s: %v", req.kind.path(), err)
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Sprintf("%s: status %d: %.200s", req.kind.path(), resp.StatusCode, body)
	default:
		out.ok = true
		out.digest = sha256.Sum256(body)
	}
	return out
}

// routing copies the front's X-Pcfront-* headers into the outcome.
func routing(out *outcome, h http.Header) {
	out.backend = h.Get(api.HeaderBackend)
	out.attempts, _ = strconv.Atoi(h.Get(api.HeaderAttempts))
	out.hedged = h.Get(api.HeaderHedged) == "true"
}

// fireSession opens a monitoring session and reads its stream to the
// end event. The digest covers the echoed configuration and every
// stream line: both are pure functions of the request.
func fireSession(client *http.Client, base string, req request) outcome {
	out := outcome{kind: kindSession}
	start := time.Now()
	resp, err := client.Post(base+"/sessions", "application/json", bytes.NewReader(req.body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	routing(&out, resp.Header)
	if err != nil {
		out.err = fmt.Sprintf("reading POST /sessions: %v", err)
		return out
	}
	if resp.StatusCode != http.StatusCreated {
		out.err = fmt.Sprintf("POST /sessions: status %d: %.200s", resp.StatusCode, data)
		return out
	}
	var created struct {
		ID     string          `json:"id"`
		Config json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(data, &created); err != nil || created.ID == "" {
		out.err = fmt.Sprintf("POST /sessions: bad body %.200s", data)
		return out
	}
	out.open = time.Since(start)
	sstart := time.Now()
	sresp, err := client.Get(base + "/sessions/" + created.ID + "/stream")
	if err != nil {
		out.err = err.Error()
		return out
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		out.err = fmt.Sprintf("GET stream: status %d", sresp.StatusCode)
		return out
	}
	h := sha256.New()
	h.Write(created.Config)
	var last []byte
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		h.Write(sc.Bytes())
		h.Write([]byte{'\n'})
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		out.err = fmt.Sprintf("reading stream: %v", err)
		return out
	}
	out.stream = time.Since(sstart)
	out.latency = time.Since(start)
	var end api.StreamEvent
	if json.Unmarshal(last, &end) != nil || end.Type != api.StreamEnd || end.Reason != api.SessionDone {
		out.err = fmt.Sprintf("short stream: last event %.200s", last)
		return out
	}
	out.ok = true
	copy(out.digest[:], h.Sum(nil))
	return out
}

// stripTrace removes the top-level "trace" block and re-encodes the
// body with sorted keys, the one form a direct answer, a traced answer
// and a front-stitched answer share.
func stripTrace(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	delete(m, "trace")
	return json.Marshal(m)
}
