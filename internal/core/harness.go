package core

import (
	"container/list"
	"sync"

	"repro/internal/compiler"
	"repro/internal/isa"
)

// HarnessCache is a bounded LRU of built, validated harness programs,
// keyed by everything BuildHarness reads: the infrastructure's
// HarnessKey and counter count, the pattern, the optimization level and
// the benchmark's Spec. A built Program is immutable, so one entry
// serves every measurement of its configuration: the harness is
// assembled and validated once per entry rather than once per run, and
// its stable pointer lets an engine's compile cache skip re-hashing it.
// Safe for concurrent use.
type HarnessCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[harnessKey]*list.Element
}

// harnessKey identifies one harness program.
type harnessKey struct {
	infra   string
	n       int
	pattern Pattern
	opt     compiler.OptLevel
	bench   string
}

// harnessEntry is one cached harness with the key it is indexed under.
type harnessEntry struct {
	key  harnessKey
	prog *isa.Program
}

// NewHarnessCache returns a cache bounded to capacity entries (minimum
// 1).
func NewHarnessCache(capacity int) *HarnessCache {
	return &HarnessCache{
		capacity: max(capacity, 1),
		ll:       list.New(),
		entries:  make(map[harnessKey]*list.Element),
	}
}

// Get returns the harness for req on infra, whose Setup has run: the
// cached program when the configuration was built before, otherwise a
// freshly built one, which is cached. A nil cache, or a benchmark
// without a Spec, builds afresh every time.
func (hc *HarnessCache) Get(infra Infrastructure, req Request) (*isa.Program, error) {
	if hc == nil || req.Bench.Spec == "" {
		return BuildHarness(infra, req)
	}
	key := harnessKey{infra.HarnessKey(), infra.NumCounters(), req.Pattern, req.Opt, req.Bench.Spec}
	hc.mu.Lock()
	p := hc.touchLocked(key)
	hc.mu.Unlock()
	if p != nil {
		return p, nil
	}
	// Build outside the lock: building is pure, and a rare duplicate
	// build is cheaper than serializing every shard behind it.
	p, err := BuildHarness(infra, req)
	if err != nil {
		return nil, err
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if shared := hc.touchLocked(key); shared != nil {
		return shared, nil // a concurrent Get inserted first
	}
	hc.entries[key] = hc.ll.PushFront(&harnessEntry{key: key, prog: p})
	if hc.ll.Len() > hc.capacity {
		oldest := hc.ll.Remove(hc.ll.Back()).(*harnessEntry)
		delete(hc.entries, oldest.key)
	}
	return p, nil
}

// touchLocked returns the cached program for key, marking it most
// recently used, or nil. Callers hold hc.mu.
func (hc *HarnessCache) touchLocked(key harnessKey) *isa.Program {
	el, ok := hc.entries[key]
	if !ok {
		return nil
	}
	hc.ll.MoveToFront(el)
	return el.Value.(*harnessEntry).prog
}

// Len returns the number of cached harnesses.
func (hc *HarnessCache) Len() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.ll.Len()
}
