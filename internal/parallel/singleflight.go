package parallel

import (
	"errors"
	"sync"
)

// flightCall is one in-flight computation shared by duplicate callers.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group deduplicates concurrent calls by key: while a computation for
// a key is in flight, callers arriving with the same key block and
// share its result instead of duplicating the work. Once the call
// completes the key is forgotten — Group is pure request dedup, not a
// cache; callers that want memoization layer it on top (Memo, or an
// eviction-aware store like the service's release store). The zero
// value is ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// Do runs compute for key, or — if an identical call is already in
// flight — blocks until it finishes and shares its result. The shared
// return reports whether this caller piggybacked on another's
// computation rather than running compute itself.
func (g *Group[V]) Do(key string, compute func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall[V]{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// Deregister and release waiters even if compute panics: the panic
	// propagates to this caller (whose server stack recovers it), while
	// waiters get an error rather than blocking forever on a key that
	// can never complete.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrFlightPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = compute()
	completed = true
	return c.val, false, c.err
}

// ErrFlightPanicked is reported to waiters whose shared computation
// panicked in the caller that ran it.
var ErrFlightPanicked = errors.New("parallel: singleflight computation panicked")

// Memo is a memoizing Group: the first call for each key computes,
// and every other call — concurrent or later — returns the memoized
// outcome (value or error). A compute that panics is not memoized: its
// waiters get ErrFlightPanicked and the next call for the key computes
// again. Entries are never evicted, which suits bounded key spaces
// like the experiment harness's (model, parameter-set) releases; use
// Group plus an evicting cache when the key space is open-ended. The
// zero value is ready to use.
type Memo[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// Do returns the memoized outcome for key, running compute once per
// key across all callers unless it panics.
func (m *Memo[V]) Do(key string, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = map[string]*flightCall[V]{}
	}
	if c, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	m.m[key] = c
	m.mu.Unlock()

	// As in Group.Do, the panic propagates to this caller; the slot is
	// dropped so it can never hand out the zero value as a result.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrFlightPanicked
			m.mu.Lock()
			delete(m.m, key)
			m.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = compute()
	completed = true
	return c.val, c.err
}
