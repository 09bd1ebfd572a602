package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/api"
)

// This file is the pair engine every workload runs on: one worker pool
// (drive), one HTTP helper (fire/call), one determinism map grouping
// answers by request identity, and one report. A workload is a mode
// value — its shots, a per-response check, and its own report lines.

// shot is one request for the engine to fire.
type shot struct {
	path string // endpoint; /sessions and /campaigns are followed to their stream
	body []byte // JSON request body
	// key is the request identity: every answer under one key must be
	// byte-identical once the mode's check has normalized it.
	key  string
	cold bool // first request needing its calibration (the -calibrate split)
	ref  bool // reference shot at the -direct node: compared, not counted
}

// newShot marshals req into a shot whose identity is its endpoint and
// body.
func newShot(path string, req any) shot {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types are plain structs
	}
	return shot{path: path, body: body, key: path + " " + string(body)}
}

// streams reports whether the endpoint creates a resource whose NDJSON
// stream the engine reads to its end event.
func (s shot) streams() bool { return s.path == "/sessions" || s.path == "/campaigns" }

// outcome is one fired shot.
type outcome struct {
	shot
	status  int
	header  http.Header
	body    []byte        // the response to the POST
	events  []event       // a stream's events, its end event last
	end     string        // a stream's end reason
	latency time.Duration // until the POST's response was read
	stream  time.Duration // reading the stream to its end event
	err     error
	// cmp is what the determinism map compares under key, and shape the
	// trace shape compared under key's shape slot; a check may set both.
	cmp, shape string
}

// mode is one workload expressed for the engine.
type mode struct {
	noun string // what one shot is called in the report
	// waves are fired one after another, so no shot overlaps (and
	// coalesces with) one of an earlier wave; a wave of reference shots
	// goes to the -direct node.
	waves [][]shot
	// check inspects one successful response, tallying the mode's
	// figures and normalizing cmp; an error fails the shot.
	check func(*outcome) error
	// extra prints the mode's own report lines after the shared ones.
	extra func(io.Writer)
	agree string // the determinism verdict line; %d is the distinct identities
}

// drive fires every shot at addr through c workers — pcload's one
// worker pool — and returns the outcomes in shot order with the
// wall-clock time.
func drive(client *http.Client, addr string, shots []shot, c int) ([]outcome, time.Duration) {
	outs := make([]outcome, len(shots))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i] = fire(client, addr, shots[i])
			}
		}()
	}
	for i := range shots {
		next <- i
	}
	close(next)
	wg.Wait()
	return outs, time.Since(start)
}

// fire posts one shot and, when it created a session or campaign,
// reads the resource's stream through to its end event. A status other
// than the endpoint's success fails the shot, except a reference
// shot's: its error body is still the answer to compare against.
func fire(client *http.Client, addr string, s shot) outcome {
	o := outcome{shot: s}
	start := time.Now()
	resp, body, err := call(client, addr+s.path, s.body)
	o.latency, o.body, o.err = time.Since(start), body, err
	if err != nil {
		return o
	}
	o.status, o.header = resp.StatusCode, resp.Header
	want := http.StatusOK
	if s.streams() {
		want = http.StatusCreated
	}
	if o.status != want && !s.ref {
		o.err = fmt.Errorf("%s: status %d: %s", s.path, o.status, bytes.TrimSpace(body))
	}
	if o.status != http.StatusCreated || !s.streams() {
		return o
	}
	var created struct {
		ID string `json:"id"`
	}
	if o.err = json.Unmarshal(body, &created); o.err != nil {
		return o
	}
	start = time.Now()
	resp, lines, err := call(client, addr+s.path+"/"+created.ID+"/stream", nil)
	o.stream, o.err = time.Since(start), err
	if err == nil && resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("GET %s stream: status %d", s.path, resp.StatusCode)
	}
	if o.err == nil {
		o.events, o.end, o.err = readEvents(lines)
	}
	return o
}

// call is pcload's one HTTP round trip: POST body (GET when body is
// nil) and read the whole response.
func call(client *http.Client, url string, body []byte) (*http.Response, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// event is one line of a session or campaign stream.
type event struct {
	Type, Reason string
	raw          []byte // the line, newline included
}

// readEvents splits an NDJSON stream into its events up to the end
// event and returns them with the end reason; a stream that closed
// without an end event is an error.
func readEvents(lines []byte) ([]event, string, error) {
	var events []event
	for _, line := range bytes.SplitAfter(lines, []byte("\n")) {
		ev := event{raw: line}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, "", fmt.Errorf("bad stream line %q: %w", line, err)
		}
		if events = append(events, ev); ev.Type == api.StreamEnd {
			return events, ev.Reason, nil
		}
	}
	return nil, "", errors.New("stream closed without an end event")
}

// run drives the mode's waves in order and reports.
func (m *mode) run(w io.Writer, addr, direct string, c int) error {
	// The header timeout bounds a stuck server without cutting
	// long-lived streams short.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.ResponseHeaderTimeout = 2 * time.Minute
	client := &http.Client{Transport: transport}
	var outs []outcome
	var elapsed time.Duration
	for _, wave := range m.waves {
		if len(wave) == 0 {
			continue
		}
		if wave[0].ref {
			refs, _ := drive(client, direct, wave, c)
			outs = append(outs, refs...)
			continue
		}
		got, took := drive(client, addr, wave, c)
		outs, elapsed = append(outs, got...), elapsed+took
	}
	return m.report(w, outs, elapsed)
}

// report checks every outcome, feeds the determinism map, and prints
// the shared summary around the mode's own lines.
func (m *mode) report(w io.Writer, outs []outcome, elapsed time.Duration) error {
	var (
		total, failures, early int
		firstErr               error
		all, streams           []time.Duration
		byPath                 = make(map[string][]time.Duration)
		first                  = make(map[string]string) // identity -> first answer
		shapes                 = make(map[string]string) // identity -> first trace shape
		divergent              []string
	)
	same := func(seen map[string]string, key, answer string) {
		if prev, ok := seen[key]; !ok {
			seen[key] = answer
		} else if prev != answer {
			divergent = append(divergent, key)
		}
	}
	for i := range outs {
		o := &outs[i]
		if !o.ref {
			total++
		}
		// A reference error body is compared as it is: the cluster
		// contract covers error bodies too.
		o.cmp = string(o.body)
		if o.err == nil && (!o.ref || o.status == http.StatusOK) {
			if !o.ref {
				all = append(all, o.latency)
				byPath[o.path] = append(byPath[o.path], o.latency)
				if o.streams() {
					streams = append(streams, o.stream)
				}
			}
			if m.check != nil {
				o.err = m.check(o)
			}
		}
		if o.err != nil {
			failures++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if o.streams() && o.end != api.SessionDone {
			// A truncated stream (deleted, evicted, drained) is a
			// lifecycle outcome, not a determinism signal; only complete
			// streams are cross-checked.
			early++
			continue
		}
		same(first, o.key, o.cmp)
		if o.shape != "" {
			same(shapes, o.key+" (trace shape)", o.shape)
		}
	}

	streaming := len(outs) > 0 && outs[0].streams()
	endedEarly := ""
	if streaming {
		endedEarly = fmt.Sprintf(", %d ended early", early)
	}
	fmt.Fprintf(w, "%-12s %d (%d failed%s)\n", m.noun+":", total, failures, endedEarly)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	if len(all) > 0 && elapsed > 0 {
		fmt.Fprintf(w, "throughput:  %.1f %s/s\n", float64(len(all))/elapsed.Seconds(), m.noun)
	}
	fmt.Fprintf(w, "latency:     %s\n", summarizeLatency(all))
	// A mixed workload pools endpoints with very different costs; split
	// the percentiles per endpoint so neither hides the other.
	if len(byPath) > 1 {
		for _, path := range slices.Sorted(maps.Keys(byPath)) {
			fmt.Fprintf(w, "  %-10s %s (n=%d)\n", path+":", summarizeLatency(byPath[path]), len(byPath[path]))
		}
	}
	if streaming {
		fmt.Fprintf(w, "stream:      %s\n", summarizeLatency(streams))
	}
	if m.extra != nil {
		m.extra(w)
	}
	if len(divergent) > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d answers differ from an identical request's, first: %s\n", len(divergent), divergent[0])
		return fmt.Errorf("%d divergent responses", len(divergent))
	}
	fmt.Fprintf(w, m.agree+"\n", len(first))
	if failures > 0 {
		fmt.Fprintf(w, "first failure: %v\n", firstErr)
		return fmt.Errorf("%d %s failed, first: %w", failures, m.noun, firstErr)
	}
	return nil
}
