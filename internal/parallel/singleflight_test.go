package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupDedupsConcurrent checks that callers arriving while a call
// is in flight share one computation, and that the key is forgotten
// afterwards (a later call recomputes).
func TestGroupDedupsConcurrent(t *testing.T) {
	var g Group[int]
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do("k", func() (int, error) {
			close(started)
			<-release
			runs.Add(1)
			return 7, nil
		})
		if v != 7 || err != nil || shared {
			t.Errorf("leader: got (%d, %v, shared=%v)", v, err, shared)
		}
	}()
	<-started
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do("k", func() (int, error) {
				runs.Add(1)
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("follower: got (%d, %v)", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give the followers a moment to park on the in-flight call, then
	// let the leader finish. Followers that raced in after completion
	// legitimately recompute, so only the run count is asserted tightly
	// when all followers piggybacked.
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1+callers-sharedCount.Load() {
		t.Fatalf("runs = %d, shared = %d: every non-shared caller must compute exactly once", got, sharedCount.Load())
	}

	// Key forgotten: a fresh call recomputes.
	_, shared, _ := g.Do("k", func() (int, error) { runs.Add(1); return 8, nil })
	if shared {
		t.Fatal("call after completion should not be shared")
	}
}

// TestMemoComputesOncePerKey checks memoization across sequential and
// concurrent callers, including error memoization.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[string]
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("a", func() (string, error) {
				runs.Add(1)
				return "va", nil
			})
			if v != "va" || err != nil {
				t.Errorf("got (%q, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if v, _ := m.Do("a", func() (string, error) { runs.Add(1); return "other", nil }); v != "va" {
		t.Fatalf("memo returned %q, want %q", v, "va")
	}
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}

	wantErr := errors.New("boom")
	if _, err := m.Do("b", func() (string, error) { return "", wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("got err %v", err)
	}
	// Errors are memoized too: the slot does not retry.
	if _, err := m.Do("b", func() (string, error) { return "ok", nil }); !errors.Is(err, wantErr) {
		t.Fatalf("error not memoized: got %v", err)
	}
}

// TestMemoDoesNotMemoizePanic checks that a compute which panics
// leaves no memoized outcome: a caller parked on it gets
// ErrFlightPanicked, and the next call for the key computes again.
func TestMemoDoesNotMemoizePanic(t *testing.T) {
	var m Memo[*int]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _ = m.Do("k", func() (*int, error) {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started

	type outcome struct {
		v   *int
		err error
		ran bool
	}
	waiter := make(chan outcome)
	go func() {
		ran := false
		v, err := m.Do("k", func() (*int, error) { ran = true; return new(int), nil })
		waiter <- outcome{v, err, ran}
	}()
	for deadline := time.Now().Add(10 * time.Second); !parkedInMemoDo(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked on the in-flight compute")
		}
	}
	close(release)
	if r := <-leaderDone; r == nil {
		t.Fatal("panic did not propagate to the computing caller")
	}
	if w := <-waiter; w.ran || !errors.Is(w.err, ErrFlightPanicked) {
		t.Fatalf("waiter on a panicked compute got (%v, %v, ran=%v), want ErrFlightPanicked", w.v, w.err, w.ran)
	}

	seven := 7
	v, err := m.Do("k", func() (*int, error) { return &seven, nil })
	if err != nil || v == nil || *v != 7 {
		t.Fatalf("Do after a panicked compute = (%v, %v), want a fresh (7, nil)", v, err)
	}
}

// parkedInMemoDo reports whether some goroutine is blocked on a
// channel receive in Memo.Do itself: a waiter parked on an in-flight
// compute (the computing caller blocks inside compute instead).
func parkedInMemoDo() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, "repro/internal/parallel.(*Memo[") {
			return true
		}
	}
	return false
}
