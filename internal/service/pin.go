package service

import (
	"context"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	stackpkg "repro/internal/stack"
)

// PinnedWorker is a worker checked out of its shard for a long-lived
// exclusive use — a continuous monitoring session — rather than one
// request. The holder owns the system until Release; the service's
// determinism contract still applies because the holder Resets the
// system before measuring, exactly as the request path does.
type PinnedWorker struct {
	svc  *Service
	sh   *shard
	sys  *stackpkg.System
	once sync.Once
}

// Pin checks a worker out of the shard serving norm's configuration
// (building the shard on first touch), waiting for one to come free or
// ctx to end. Callers must Release the worker; a session that pins
// every worker of a shard starves /measure traffic for that
// configuration, so callers should bound how many pins they hold (the
// monitor registry's MaxSessions does this).
func (s *Service) Pin(ctx context.Context, norm api.MeasureRequest) (*PinnedWorker, error) {
	sh, sys, err := s.acquire(ctx, norm, true)
	if err != nil {
		return nil, err
	}
	s.pins.Add(1)
	return &PinnedWorker{svc: s, sh: sh, sys: sys}, nil
}

// System returns the pinned measurement system.
func (w *PinnedWorker) System() *stackpkg.System { return w.sys }

// Calibration returns the cached fixed-error estimate for norm's
// configuration, computing it on the pinned worker if this is the
// first need. The result is identical to what the request path would
// compute: the calibration seed derives from the cache key, not the
// worker.
func (w *PinnedWorker) Calibration(norm api.MeasureRequest) (core.Calibration, error) {
	// A pinned worker outlives any one request, so its calibrations are
	// not attributed to a request trace.
	return w.svc.calibration(context.Background(), w.sh, norm, w.sys)
}

// Release returns the worker to its pool. Idempotent: a second call is
// a no-op, so lifecycle paths (normal completion, eviction, drain) may
// all release defensively.
func (w *PinnedWorker) Release() {
	w.once.Do(func() {
		w.svc.pins.Add(^uint64(0))
		w.sh.checkin(w.sys)
	})
}
