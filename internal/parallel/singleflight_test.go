package parallel

import (
	"errors"
	"runtime"
	"strconv"
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
func parkedInMemoDo() bool { return memoWaiters() > 0 }

// memoWaiters counts the goroutines blocked on a channel receive in a
// Memo method itself — waiters parked on another caller's compute.
func memoWaiters() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, "repro/internal/parallel.(*Memo[") {
			n++
		}
	}
	return n
}

// awaitMemoWaiters blocks until n goroutines are parked in Memo.
func awaitMemoWaiters(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); memoWaiters() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked on the in-flight batch", memoWaiters(), n)
		}
	}
}

// TestMemoDoManyFollowersBlock checks that keys a batch has claimed
// are shared, not recomputed: a Do and an overlapping DoMany arriving
// mid-batch park on the claimed slots (the DoMany computing its own
// unclaimed key first), and every caller sees the batch's values.
func TestMemoDoManyFollowersBlock(t *testing.T) {
	var m Memo[string]
	var runs sync.Map // key → computations
	count := func(keys []string, missing []int) []string {
		vals := make([]string, len(missing))
		for j, i := range missing {
			n, _ := runs.LoadOrStore(keys[i], new(atomic.Int64))
			n.(*atomic.Int64).Add(1)
			vals[j] = "v" + keys[i]
		}
		return vals
	}
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan []string)
	lead := []string{"a", "b", "a"}
	go func() {
		vals, err := m.DoMany(lead, func(missing []int) ([]string, error) {
			if len(missing) != 2 || missing[0] != 0 || missing[1] != 1 {
				t.Errorf("claimed %v, want [0 1]: a repeated key is claimed once", missing)
			}
			close(started)
			<-release
			return count(lead, missing), nil
		})
		if err != nil {
			t.Error(err)
		}
		leader <- vals
	}()
	<-started

	single := make(chan string)
	go func() {
		v, err := m.Do("a", func() (string, error) { return "recomputed", nil })
		if err != nil {
			t.Error(err)
		}
		single <- v
	}()
	batch := make(chan []string)
	follow := []string{"c", "b"}
	go func() {
		vals, err := m.DoMany(follow, func(missing []int) ([]string, error) {
			if len(missing) != 1 || missing[0] != 0 {
				t.Errorf("follower claimed %v, want [0]", missing)
			}
			return count(follow, missing), nil
		})
		if err != nil {
			t.Error(err)
		}
		batch <- vals
	}()
	awaitMemoWaiters(t, 2)
	select {
	case <-single:
		t.Fatal("Do returned before the batch holding its key finished")
	case <-batch:
		t.Fatal("DoMany returned before the batch holding one of its keys finished")
	default:
	}
	close(release)
	if got := <-leader; strings.Join(got, ",") != "va,vb,va" {
		t.Errorf("leader got %v", got)
	}
	if got := <-single; got != "va" {
		t.Errorf("Do got %q, want the batch's %q", got, "va")
	}
	if got := <-batch; strings.Join(got, ",") != "vc,vb" {
		t.Errorf("follower batch got %v", got)
	}
	runs.Range(func(k, n any) bool {
		if c := n.(*atomic.Int64).Load(); c != 1 {
			t.Errorf("key %v computed %d times, want 1", k, c)
		}
		return true
	})
}

// TestMemoDoManyOverlappingNoDeadlock checks overlapping batches. A
// batch publishes its own claims before waiting on keys another batch
// holds, so its values are readable while that batch is still blocked;
// and many concurrent overlapping batches all finish, computing each
// key exactly once.
func TestMemoDoManyOverlappingNoDeadlock(t *testing.T) {
	var m Memo[string]
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan []string, 2)
	go func() {
		vals, _ := m.DoMany([]string{"x", "y"}, func([]int) ([]string, error) {
			close(started)
			<-release
			return []string{"vx", "vy"}, nil
		})
		done <- vals
	}()
	<-started
	go func() {
		vals, _ := m.DoMany([]string{"y", "z"}, func([]int) ([]string, error) { return []string{"vz"}, nil })
		done <- vals
	}()
	awaitMemoWaiters(t, 1) // the second batch, parked on y
	timeout := time.After(10 * time.Second)
	got := make(chan string)
	go func() {
		v, _ := m.Do("z", func() (string, error) { return "recomputed", nil })
		got <- v
	}()
	select {
	case v := <-got:
		if v != "vz" {
			t.Fatalf("Do(z) = %q, want the second batch's vz", v)
		}
	case <-timeout:
		t.Fatal("a batch waited on another's key before publishing its own")
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case vals := <-done:
			if len(vals) != 2 || vals[0] != "v"+string(vals[0][1]) {
				t.Errorf("got %v", vals)
			}
		case <-timeout:
			t.Fatal("overlapping batches deadlocked")
		}
	}

	var stress Memo[int]
	var runs [6]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{strconv.Itoa(g % 6), strconv.Itoa((g + 3) % 6), strconv.Itoa((g + 1) % 6)}
			vals, err := stress.DoMany(keys, func(missing []int) ([]int, error) {
				out := make([]int, len(missing))
				for j, i := range missing {
					k, _ := strconv.Atoi(keys[i])
					runs[k].Add(1)
					runtime.Gosched()
					out[j] = k
				}
				return out, nil
			})
			for i, v := range vals {
				if err != nil || strconv.Itoa(v) != keys[i] {
					t.Errorf("batch %d key %s: got (%d, %v)", g, keys[i], v, err)
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-timeout:
		t.Fatal("concurrent overlapping batches deadlocked")
	}
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestMemoDoManyPanicDropsClaims checks that a panicking batch drops
// every slot it claimed: a waiter on one gets ErrFlightPanicked, and
// later calls compute each key afresh.
func TestMemoDoManyPanicDropsClaims(t *testing.T) {
	var m Memo[int]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _ = m.DoMany([]string{"a", "b"}, func([]int) ([]int, error) {
			close(started)
			<-release
			panic("batch failed")
		})
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, err := m.Do("b", func() (int, error) { return -1, nil })
		waiter <- err
	}()
	awaitMemoWaiters(t, 1)
	close(release)
	if r := <-leaderDone; r == nil {
		t.Fatal("panic did not propagate to the computing caller")
	}
	if err := <-waiter; !errors.Is(err, ErrFlightPanicked) {
		t.Fatalf("waiter got %v, want ErrFlightPanicked", err)
	}
	vals, err := m.DoMany([]string{"a", "b"}, func(missing []int) ([]int, error) {
		if len(missing) != 2 {
			t.Errorf("recomputed %v, want both dropped keys", missing)
		}
		return []int{1, 2}, nil
	})
	if err != nil || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("DoMany after a panicked batch = (%v, %v), want fresh [1 2]", vals, err)
	}
}

// TestMemoDoManyErrorNotMemoized checks that a failed batch memoizes
// nothing — its error may concern one key only: a waiter parked on a
// valid key claims it afresh, and later calls compute normally.
func TestMemoDoManyErrorNotMemoized(t *testing.T) {
	var m Memo[string]
	bad := errors.New("invalid key")
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan error)
	go func() {
		_, err := m.DoMany([]string{"good", "bad"}, func([]int) ([]string, error) {
			close(started)
			<-release
			return nil, bad
		})
		leader <- err
	}()
	<-started
	type outcome struct {
		v   string
		err error
	}
	waiter := make(chan outcome)
	go func() {
		v, err := m.Do("good", func() (string, error) { return "g", nil })
		waiter <- outcome{v, err}
	}()
	awaitMemoWaiters(t, 1)
	close(release)
	if err := <-leader; !errors.Is(err, bad) {
		t.Fatalf("batch got %v, want its compute's error", err)
	}
	if w := <-waiter; w.err != nil || w.v != "g" {
		t.Fatalf("waiter on a failed batch got (%q, %v), want its own fresh (g, nil)", w.v, w.err)
	}
	vals, err := m.DoMany([]string{"bad", "good"}, func(missing []int) ([]string, error) {
		if len(missing) != 1 || missing[0] != 0 {
			t.Errorf("claimed %v, want only the never-computed key", missing)
		}
		return []string{"b"}, nil
	})
	if err != nil || strings.Join(vals, ",") != "b,g" {
		t.Fatalf("DoMany after a failed batch = (%v, %v), want [b g]", vals, err)
	}
}
