package isa

import "sync"

// Table interns the programs of pure builders. A built Program is
// immutable, so one program can serve every caller that would have
// built the same one: the first Get of a key builds, every later Get
// shares the result. Safe for concurrent use. Entries live as long as
// the table, so keys must come from a small, bounded domain.
type Table[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the entry for key, building it on first use.
func (t *Table[K, V]) Get(key K, build func() V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[key]
	if !ok {
		if t.m == nil {
			t.m = make(map[K]V)
		}
		v = build()
		t.m[key] = v
	}
	return v
}
