// Package evlog provides the bounded, append-only event log behind the
// service's NDJSON streams, and the lifecycle registry that owns its
// producers: monitoring sessions and validation campaigns both publish
// through a Log and live in a Registry.
//
// The log holds marshaled JSON lines in emission order and supports the
// replay-then-follow contract: a reader attaching at any time first
// replays the retained lines from its cursor, then blocks on a
// notification channel for appends, until the end event is written.
// Marshaling happens at append time with encoding/json over types whose
// field order is fixed (no maps), so two logs fed identical events are
// byte-identical on the wire — the determinism the stream tests assert.
//
// A Registry holds one kind of Item under one lifecycle contract: a
// bounded number producing, bounded retention of ended items, idle
// eviction, and a Close that drains every item and waits for every
// producer.
package evlog

import (
	"encoding/json"
	"sync"
	"time"
)

// Log is a bounded event log. The zero value is not usable; construct
// with New. All methods are safe for concurrent use.
type Log struct {
	now func() time.Time

	mu sync.Mutex
	// lines holds marshaled NDJSON event lines in emission order. It is
	// a bounded ring: start is the absolute index of lines[0], and lines
	// older than roughly the capacity are dropped so a long-lived
	// producer cannot hold megabytes of history. Readers that attach
	// while the full log is retained replay the complete series; later
	// attaches replay the tail.
	lines       [][]byte
	start       int
	cap         int
	notify      chan struct{} // closed and renewed on every append
	ended       bool          // end event written; the log is complete
	subscribers int
	lastAccess  time.Time
}

// New returns a log retaining about capacity lines. now supplies the
// clock for idle accounting (nil means time.Now; tests inject a fake).
func New(capacity int, now func() time.Time) *Log {
	if now == nil {
		now = time.Now
	}
	return &Log{
		now:        now,
		cap:        capacity,
		notify:     make(chan struct{}),
		lastAccess: now(),
	}
}

// Append marshals the events onto the log atomically — a reader sees
// either none or all of them — and wakes waiting readers. It reports
// whether the events were accepted: appends after End are dropped
// wholesale, so a completed log always ends with its end event.
func (l *Log) Append(events ...any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended {
		return false
	}
	l.appendLocked(events)
	return true
}

// End writes the final event and marks the log complete. Idempotent:
// the first caller wins and later calls report false — the gate
// producers use to decide a close race.
func (l *Log) End(event any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended {
		return false
	}
	l.ended = true
	l.appendLocked([]any{event})
	return true
}

// appendLocked marshals events onto the ring and wakes waiters.
func (l *Log) appendLocked(events []any) {
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			// Unreachable: every event type marshals. Keep the log
			// consistent rather than panicking a producer.
			continue
		}
		l.lines = append(l.lines, line)
	}
	// Trim in chunks (a quarter over the cap) so the copy that releases
	// dropped lines' backing array amortizes to O(1) per append.
	if len(l.lines) > l.cap+l.cap/4 {
		drop := len(l.lines) - l.cap
		l.lines = append([][]byte(nil), l.lines[drop:]...)
		l.start += drop
	}
	close(l.notify)
	l.notify = make(chan struct{})
}

// Ended reports whether the end event has been written.
func (l *Log) Ended() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ended
}

// Events returns the retained log lines from absolute index i on, and
// the next index to resume from (i plus the delivered lines; ahead of
// that when lines older than the retention bound were dropped). When no
// new lines exist, it returns a channel that is closed on the next
// append and whether the log is already complete (the end event is
// written, so a reader that has consumed everything can stop). Reading
// counts as client activity for idle accounting.
func (l *Log) Events(i int) (lines [][]byte, next int, wait <-chan struct{}, done bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastAccess = l.now()
	if i < l.start {
		i = l.start
	}
	if idx := i - l.start; idx < len(l.lines) {
		lines = l.lines[idx:]
		return lines, i + len(lines), nil, l.ended
	}
	return nil, i, l.notify, l.ended
}

// Subscribe registers an attached stream; subscribed logs are never
// idle.
func (l *Log) Subscribe() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subscribers++
	l.lastAccess = l.now()
}

// Unsubscribe detaches a stream.
func (l *Log) Unsubscribe() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subscribers--
	l.lastAccess = l.now()
}

// Touch records client activity (snapshot reads).
func (l *Log) Touch() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastAccess = l.now()
}

// LastAccess returns the last client-activity time.
func (l *Log) LastAccess() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastAccess
}

// IdleSince returns how long the log has been without client activity;
// zero while any stream is attached.
func (l *Log) IdleSince(now time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.subscribers > 0 {
		return 0
	}
	return now.Sub(l.lastAccess)
}
