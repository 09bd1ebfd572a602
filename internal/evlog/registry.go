package evlog

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
)

// Registry errors. Each error a registry returns reads in its owner's
// words ("monitor: too many sessions (limit 16)") and matches one of
// these kinds with errors.Is.
var (
	// ErrFull reports that MaxActive items are already producing.
	ErrFull = errors.New("registry full")
	// ErrClosed reports an Open on a drained registry.
	ErrClosed = errors.New("registry closed")
	// ErrNotFound reports an unknown item ID.
	ErrNotFound = errors.New("no such item")
)

// registryError is a registry error: its owner's text over its kind.
type registryError struct {
	kind error
	msg  string
}

func (e *registryError) Error() string { return e.msg }
func (e *registryError) Unwrap() error { return e.kind }

// retainedPerActive scales MaxActive into the bound on *finished* items
// kept queryable for snapshots and stream replay: when the map reaches
// MaxActive*retainedPerActive, the least recently accessed ended item is
// dropped to make room. Active items are never displaced (they number at
// most MaxActive).
const retainedPerActive = 4

// Item is one long-lived producer a Registry owns: a monitoring session
// or a validation campaign.
type Item interface {
	// Log is the item's event log; its end event marks the item ended,
	// and its client-activity clock drives idle eviction.
	Log() *Log
	// End ends the item with the reason ("deleted", "evicted",
	// "drained") as its end event. Idempotent: the first end wins.
	End(reason string)
	// Run is the producer body. The registry calls it once per built
	// item and Close waits for it, so Run must return promptly once the
	// item has ended, after releasing what the build acquired and
	// stopping every goroutine it started.
	Run()
}

// RegistryConfig sizes a registry.
type RegistryConfig struct {
	// Pkg and Noun word the registry's errors and IDs: Pkg "monitor" and
	// Noun "session" give "monitor: no such session: s1".
	Pkg, Noun string
	// MaxActive bounds items still producing. Finished items stay
	// queryable without counting against it; their retention is bounded
	// separately and by idle eviction.
	MaxActive int
	// IdleTimeout is how long an item may go without client activity
	// before the janitor evicts it; zero means 2 minutes.
	IdleTimeout time.Duration
	// SweepInterval is the janitor's cadence; zero means 15 seconds,
	// negative disables the janitor.
	SweepInterval time.Duration
	// Now is the registry's clock; nil means time.Now.
	Now func() time.Time
}

// Registry owns the items of one kind for one service instance: the
// active bound, bounded retention of ended items, idle eviction, and
// drain on shutdown. It is safe for concurrent use.
type Registry[T Item] struct {
	cfg RegistryConfig

	mu     sync.Mutex
	items  map[string]T
	nextID int
	closed bool

	wg          sync.WaitGroup // producers
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewRegistry builds a registry and starts its idle janitor (unless
// disabled).
func NewRegistry[T Item](cfg RegistryConfig) *Registry[T] {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Registry[T]{cfg: cfg, items: make(map[string]T)}
	if cfg.SweepInterval > 0 {
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor()
	}
	return r
}

// janitor periodically evicts idle items until Close.
func (r *Registry[T]) janitor() {
	defer close(r.janitorDone)
	t := time.NewTicker(r.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Sweep()
		case <-r.janitorStop:
			return
		}
	}
}

// errorf builds a registry error of the given kind in the owner's words.
func (r *Registry[T]) errorf(kind error, format string, args ...any) error {
	return &registryError{kind, r.cfg.Pkg + ": " + fmt.Sprintf(format, args...)}
}

// admitLocked reports why no item may open now, if anything. Callers
// hold r.mu.
func (r *Registry[T]) admitLocked() error {
	if r.closed {
		return r.errorf(ErrClosed, "registry closed")
	}
	if r.activeLocked() >= r.cfg.MaxActive {
		return r.errorf(ErrFull, "too many %ss (limit %d)", r.cfg.Noun, r.cfg.MaxActive)
	}
	return nil
}

// Open registers a new item and starts its producer. It checks capacity,
// calls build with the item's ID outside the lock — building may wait,
// as pinning a pooled worker does, without stalling the registry — then
// checks capacity again under the lock. An item that loses that race is
// ended unseen and run here, so its producer releases what build
// acquired.
func (r *Registry[T]) Open(build func(id string) (T, error)) (T, error) {
	var zero T
	r.mu.Lock()
	if err := r.admitLocked(); err != nil {
		r.mu.Unlock()
		return zero, err
	}
	r.nextID++
	id := fmt.Sprintf("%c%d", r.cfg.Noun[0], r.nextID)
	r.mu.Unlock()

	item, err := build(id)
	if err != nil {
		return zero, err
	}

	r.mu.Lock()
	if err := r.admitLocked(); err != nil {
		r.mu.Unlock()
		item.End(api.SessionDrained)
		item.Run()
		return zero, err
	}
	r.evictOverflowLocked()
	r.items[id] = item
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		item.Run()
	}()
	return item, nil
}

// activeLocked counts items still producing. Callers hold r.mu.
func (r *Registry[T]) activeLocked() int {
	n := 0
	for _, item := range r.items {
		if !item.Log().Ended() {
			n++
		}
	}
	return n
}

// evictOverflowLocked keeps the retained-item map bounded: when it is
// full, the least recently accessed *ended* items are forgotten to make
// room for one more. Callers hold r.mu.
func (r *Registry[T]) evictOverflowLocked() {
	for len(r.items) >= r.cfg.MaxActive*retainedPerActive {
		oldestID := ""
		var oldest time.Time
		for id, item := range r.items {
			if !item.Log().Ended() {
				continue
			}
			if at := item.Log().LastAccess(); oldestID == "" || at.Before(oldest) {
				oldestID, oldest = id, at
			}
		}
		if oldestID == "" {
			return // all active; the admitLocked bound keeps this impossible
		}
		delete(r.items, oldestID)
	}
}

// Get returns an item by ID.
func (r *Registry[T]) Get(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	item, ok := r.items[id]
	if !ok {
		return item, r.errorf(ErrNotFound, "no such %s: %s", r.cfg.Noun, id)
	}
	return item, nil
}

// Delete removes an item: its producer stops, attached streams receive
// their remaining events plus a deleted end event, and the ID is
// forgotten.
func (r *Registry[T]) Delete(id string) error {
	r.mu.Lock()
	item, ok := r.items[id]
	delete(r.items, id)
	r.mu.Unlock()
	if !ok {
		return r.errorf(ErrNotFound, "no such %s: %s", r.cfg.Noun, id)
	}
	item.End(api.SessionDeleted)
	return nil
}

// Stats snapshots the registry's gauges under one lock acquisition:
// active items are still producing, retained ones include ended items
// kept for replay. One snapshot feeds both /healthz and /metrics so the
// views agree.
func (r *Registry[T]) Stats() (active, retained int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeLocked(), len(r.items)
}

// Sweep evicts every item that has been idle (no snapshot and no
// attached stream) longer than IdleTimeout, producing or not — eviction
// is what reclaims an abandoned item's resources — and returns how many
// it evicted. The janitor calls this periodically; tests call it
// directly with an injected clock.
func (r *Registry[T]) Sweep() int {
	now := r.cfg.Now()
	r.mu.Lock()
	var evict []T
	for id, item := range r.items {
		if item.Log().IdleSince(now) > r.cfg.IdleTimeout {
			evict = append(evict, item)
			delete(r.items, id)
		}
	}
	r.mu.Unlock()
	for _, item := range evict {
		item.End(api.SessionEvicted)
	}
	return len(evict)
}

// Close drains the registry: the janitor stops, every item ends with a
// drained end event (so attached streams terminate cleanly), and Close
// blocks until every producer — deleted and evicted ones included — has
// returned. Idempotent. Items stay readable afterwards, but none can
// open.
func (r *Registry[T]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	items := make([]T, 0, len(r.items))
	for _, item := range r.items {
		items = append(items, item)
	}
	r.mu.Unlock()

	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}
	for _, item := range items {
		item.End(api.SessionDrained)
	}
	r.wg.Wait()
}
