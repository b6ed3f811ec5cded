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

// errFlightAbandoned marks a slot whose batch compute failed: the
// error is not this key's to memoize, so waiters claim the key afresh.
var errFlightAbandoned = errors.New("parallel: batch computation failed")

// Memo is a memoizing Group: the first call for each key computes,
// and every other call — concurrent or later — returns the memoized
// outcome (value or error). A compute that panics is not memoized: its
// waiters get ErrFlightPanicked and the next call for the key computes
// again. DoMany is the batch form. Entries are never evicted, which
// suits bounded key spaces like the experiment harness's (model,
// parameter-set) releases; use Group plus an evicting cache when the
// key space is open-ended. The zero value is ready to use.
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
		if c.err == errFlightAbandoned {
			return m.Do(key, compute)
		}
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

// DoMany is Do for a batch of keys computed together: out[i] is the
// memoized value for keys[i]. Every key with no memoized or in-flight
// outcome is claimed under one lock, and one compute call fills them
// all: missing lists the claimed keys' indexes into keys, ascending
// and each distinct key once, and compute returns their values in that
// order. The claimed values are published before DoMany waits on keys
// other callers hold, so overlapping batches never wait on each other
// in a cycle. A compute that panics drops every claimed slot, its
// waiters getting ErrFlightPanicked. A compute that fails drops them
// too, without memoizing the error — it may concern one key of the
// batch only — and their waiters claim the keys afresh.
func (m *Memo[V]) DoMany(keys []string, compute func(missing []int) ([]V, error)) ([]V, error) {
	calls := make([]*flightCall[V], len(keys))
	var missing []int
	m.mu.Lock()
	if m.m == nil {
		m.m = map[string]*flightCall[V]{}
	}
	for i, key := range keys {
		c, ok := m.m[key]
		if !ok {
			c = &flightCall[V]{done: make(chan struct{})}
			m.m[key] = c
			missing = append(missing, i)
		}
		calls[i] = c
	}
	m.mu.Unlock()
	if len(missing) > 0 {
		if err := m.fill(keys, calls, missing, compute); err != nil {
			return nil, err
		}
	}
	out := make([]V, len(keys))
	for i, c := range calls {
		<-c.done
		if c.err == errFlightAbandoned {
			vals, err := m.DoMany(keys[i:i+1], func([]int) ([]V, error) { return compute([]int{i}) })
			if err != nil {
				return nil, err
			}
			out[i] = vals[0]
			continue
		}
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.val
	}
	return out, nil
}

// fill runs a batch compute for the slots DoMany claimed and publishes
// its outcome, dropping every claimed slot unless compute succeeds.
func (m *Memo[V]) fill(keys []string, calls []*flightCall[V], missing []int, compute func(missing []int) ([]V, error)) (err error) {
	completed := false
	defer func() {
		if !completed || err != nil {
			drop := errFlightAbandoned
			if !completed {
				drop = ErrFlightPanicked
			}
			m.mu.Lock()
			for _, i := range missing {
				delete(m.m, keys[i])
			}
			m.mu.Unlock()
			for _, i := range missing {
				calls[i].err = drop
			}
		}
		for _, i := range missing {
			close(calls[i].done)
		}
	}()
	vals, err := compute(missing)
	if err == nil {
		for j, i := range missing {
			calls[i].val = vals[j]
		}
	}
	completed = true
	return err
}
