package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/stack"
)

// Marks a probe takes during one core.Measure call.
const (
	markBegin = iota
	markSetupStart
	markSetupEnd
	markRunStart
	markRunEnd
	markEnd
	numMarks
)

// probe records the stage boundaries of one core.Measure call, as
// monotonic nanoseconds or, when mem is set, as cumulative heap bytes
// allocated. The stages are the infrastructure's Setup, the harness
// build between Setup and the engine run, the engine run, and the
// extraction after it.
type probe struct {
	mem   bool
	epoch time.Time
	marks [numMarks]int64
	ms    runtime.MemStats
}

func (p *probe) mark(i int) {
	if p.mem {
		runtime.ReadMemStats(&p.ms)
		p.marks[i] = int64(p.ms.TotalAlloc)
		return
	}
	p.marks[i] = int64(time.Since(p.epoch))
}

// timedInfra is a core.Infrastructure whose Setup is bracketed by probe
// marks; every other method is the wrapped one.
type timedInfra struct {
	core.Infrastructure
	p *probe
}

func (w timedInfra) Setup(specs []core.CounterSpec) error {
	w.p.mark(markSetupStart)
	err := w.Infrastructure.Setup(specs)
	w.p.mark(markSetupEnd)
	return err
}

// timedRunner is a cpu.Runner whose RunProgram is bracketed by probe
// marks.
type timedRunner struct {
	cpu.Runner
	p *probe
}

func (w timedRunner) RunProgram(c *cpu.Core, prog *isa.Program) error {
	w.p.mark(markRunStart)
	err := w.Runner.RunProgram(c, prog)
	w.p.mark(markRunEnd)
	return err
}

// stageTotals sums the stages over replayed core.Measure calls.
type stageTotals struct {
	calls                        int
	setup, harness, run, extract int64
}

func (s *stageTotals) add(p *probe) {
	s.calls++
	s.setup += p.marks[markSetupEnd] - p.marks[markSetupStart]
	s.harness += p.marks[markRunStart] - p.marks[markSetupEnd]
	s.run += p.marks[markRunEnd] - p.marks[markRunStart]
	s.extract += p.marks[markEnd] - p.marks[markRunEnd]
}

// per returns a total per call divided by scale.
func (s *stageTotals) per(total int64, scale float64) float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(total) / float64(s.calls) / scale
}

// replayer re-runs served /measure requests through core.Measure on
// systems it builds itself, with a compiled engine and compile cache
// of its own sized like a node's.
type replayer struct {
	engine  *engine.Compiled
	systems map[string]*stack.System
	times   stageTotals
	allocs  stageTotals
	// checked counts replayed requests; mismatches lists failures of
	// wrapper fidelity or of agreement with the served body.
	checked    int
	mismatches []string
}

func newReplayer() *replayer {
	return &replayer{
		engine:  engine.NewCompiled(engine.NewCache(engine.DefaultCacheCapacity)),
		systems: make(map[string]*stack.System),
	}
}

// system returns the replay system for a normalized request's shard.
func (r *replayer) system(norm api.MeasureRequest) (*stack.System, error) {
	key := norm.ShardKey()
	if sys, ok := r.systems[key]; ok {
		return sys, nil
	}
	model, err := cpu.ModelByTag(norm.Processor)
	if err != nil {
		return nil, err
	}
	sys, err := stack.New(model, norm.Stack, stack.Options{WithTSC: !norm.NoTSC, Governor: kernel.Performance})
	if err != nil {
		return nil, err
	}
	r.systems[key] = sys
	return sys, nil
}

// runs measures every run of the request from a reset system, the way
// a node's worker does. With a probe, the infrastructure and the
// engine are wrapped and each call's marks are passed to record.
func (r *replayer) runs(sys *stack.System, norm api.MeasureRequest, creq core.Request, p *probe, record func(*probe)) ([]*core.Measurement, error) {
	infra := sys.Infra
	creq.Runner = r.engine
	if p != nil {
		infra = timedInfra{Infrastructure: sys.Infra, p: p}
		creq.Runner = timedRunner{Runner: r.engine, p: p}
	}
	sys.Reset()
	var ms []*core.Measurement
	for i := 0; i < norm.Runs; i++ {
		creq.Seed = norm.Seed + uint64(i)
		if p != nil {
			p.mark(markBegin)
		}
		m, err := core.Measure(sys.Kernel, infra, creq)
		if p != nil {
			p.mark(markEnd)
			record(p)
		}
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// replay re-runs one served request: timed with the wrappers, then
// unwrapped (the two must agree byte for byte), and with allocation
// marks when withAllocs is set. served, when non-nil, is the node's
// response body, whose deltas the replay must reproduce.
func (r *replayer) replay(reqBody, served []byte, withAllocs bool) error {
	var req api.MeasureRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return fmt.Errorf("decoding replayed request: %w", err)
	}
	norm, err := req.Normalized()
	if err != nil {
		return err
	}
	creq, err := norm.Build()
	if err != nil {
		return err
	}
	sys, err := r.system(norm)
	if err != nil {
		return err
	}
	p := &probe{epoch: time.Now()}
	wrapped, err := r.runs(sys, norm, creq, p, r.times.add)
	if err != nil {
		return fmt.Errorf("wrapped replay: %w", err)
	}
	plain, err := r.runs(sys, norm, creq, nil, nil)
	if err != nil {
		return fmt.Errorf("unwrapped replay: %w", err)
	}
	if withAllocs {
		if _, err := r.runs(sys, norm, creq, &probe{mem: true}, r.allocs.add); err != nil {
			return fmt.Errorf("allocation replay: %w", err)
		}
	}
	r.checked++
	wb, _ := json.Marshal(wrapped)
	pb, _ := json.Marshal(plain)
	if !bytes.Equal(wb, pb) {
		r.mismatches = append(r.mismatches, fmt.Sprintf("wrapped and unwrapped core.Measure differ for %s", norm.Key()))
	}
	if served != nil {
		var resp api.MeasureResponse
		if err := json.Unmarshal(served, &resp); err != nil {
			return fmt.Errorf("decoding served response: %w", err)
		}
		deltas := make([][]int64, len(plain))
		for i, m := range plain {
			deltas[i] = m.Deltas
		}
		db, _ := json.Marshal(deltas)
		sb, _ := json.Marshal(resp.Deltas)
		if !bytes.Equal(db, sb) {
			r.mismatches = append(r.mismatches, fmt.Sprintf("replayed deltas differ from the served ones for %s", norm.Key()))
		}
	}
	return nil
}
