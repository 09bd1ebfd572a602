package service

import (
	"sort"

	"repro/internal/api"
)

// Stats is the single source of truth behind both operator views of
// the service: /healthz renders it as JSON (api.HealthResponse) and
// /metrics renders it as Prometheus exposition. One snapshot function
// means the two views can never disagree about what they report —
// they can only format it differently.
type Stats struct {
	// ServiceStats holds the counters /healthz reports as they are.
	api.ServiceStats
	// Plans counts accepted plan requests.
	Plans uint64
	// Calibrations is the calibration-cache size summed over shards.
	Calibrations int
	// Shards describes every built pool, sorted by key.
	Shards []ShardStats
	// Engines reports per-engine run counts and the shared compile
	// cache.
	Engines EngineStats
}

// ShardStats describes one system pool.
type ShardStats struct {
	Key          string
	Workers      int
	Idle         int
	InUse        int
	Calibrations int
}

// EngineStats reports execution-engine counters and the compile cache.
type EngineStats struct {
	InterpreterRuns int64
	CompiledRuns    int64
	CacheSize       int
	CacheCapacity   int
	CacheHits       int64
	CacheMisses     int64
	CacheEvictions  int64
}

// Stats snapshots every service counter and pool gauge. Counters are
// read individually without a global pause, so a snapshot taken under
// load is each value's own instant — consistent enough for both
// operator views, which is all it promises.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	keys := make([]string, 0, len(s.shards))
	for k := range s.shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	shards := make([]*shard, 0, len(keys))
	for _, k := range keys {
		shards = append(shards, s.shards[k])
	}
	s.mu.Unlock()

	st := Stats{
		ServiceStats: api.ServiceStats{
			CalibrationHits:   s.calHits.Load(),
			CalibrationMisses: s.calMisses.Load(),
			PinnedWorkers:     s.pins.Load(),
		},
		Shards: make([]ShardStats, 0, len(shards)),
	}
	// Every accepted call goes through exactly one flight, as its leader
	// or as a follower.
	for _, fl := range []struct {
		calls *uint64
		f     interface {
			Counts() (leaders, followers uint64)
		}
	}{{&st.Requests, s.flight}, {&st.Analyzes, s.aflight}, {&st.Infers, s.iflight}, {&st.Plans, s.pflight}} {
		leaders, followers := fl.f.Counts()
		*fl.calls = leaders + followers
		st.CoalesceLeaders += leaders
		st.Coalesced += followers
	}
	for _, sh := range shards {
		idle := len(sh.workers)
		cals := sh.calCount()
		st.Calibrations += cals
		st.Shards = append(st.Shards, ShardStats{
			Key:          sh.key,
			Workers:      sh.size,
			Idle:         idle,
			InUse:        sh.size - idle,
			Calibrations: cals,
		})
	}
	cs := s.compiled.CacheStats()
	st.Engines = EngineStats{
		InterpreterRuns: s.interp.Runs(),
		CompiledRuns:    s.compiled.Runs(),
		CacheSize:       cs.Size,
		CacheCapacity:   cs.Capacity,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEvictions:  cs.Evictions,
	}
	return st
}
