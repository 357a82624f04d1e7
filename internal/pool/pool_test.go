package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 100} {
		const n = 50
		var hits [n]int32
		err := Dispatch(context.Background(), nil, n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyRange(t *testing.T) {
	if err := Dispatch(context.Background(), nil, 0, 4, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsError(t *testing.T) {
	e3, e7 := errors.New("e3"), errors.New("e7")
	fail := func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	}
	// Serial: units run in index order, 3 fails first and 7 is skipped.
	if err := Dispatch(context.Background(), nil, 10, 1, fail); !errors.Is(err, e3) {
		t.Fatalf("serial err = %v, want the index-3 error", err)
	}
	// Parallel: which injected error surfaces depends on scheduling, but
	// one of them must.
	if err := Dispatch(context.Background(), nil, 10, 4, fail); !errors.Is(err, e3) && !errors.Is(err, e7) {
		t.Fatalf("parallel err = %v, want an injected error", err)
	}
}

func TestForEachSkipsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := Dispatch(context.Background(), nil, 1000, 1, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("%d units ran after the first failure, want short-circuit to 1", ran)
	}
}

// TestForEachStopsDispatchAfterFailure is the regression test for the
// dispatcher short-circuit: after an early failure the remaining indices
// must not be dispatched at all. The range is large enough that draining it
// through the jobs channel (the old behaviour) would dominate the runtime,
// while the executed-unit count bounds how much work escaped before the
// halt propagated.
func TestForEachStopsDispatchAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		var ran int32
		err := Dispatch(context.Background(), nil, 1<<30, workers, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatal(err)
		}
		// The real regression signal is that this test returns at all: the
		// old dispatcher drained the full 2^30 range through the jobs
		// channel. The executed-unit bound is deliberately loose — workers
		// may churn units until the failing goroutine gets scheduled — but
		// must stay far below the range size.
		if int(ran) > 1<<20 {
			t.Fatalf("workers=%d: %d units ran after early failure", workers, ran)
		}
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := Dispatch(ctx, nil, 1<<30, 4, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(ran) > 1<<20 {
		t.Fatalf("%d units ran after cancellation", ran)
	}
}

func TestForEachCtxUnitErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Dispatch(ctx, nil, 100, 2, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the unit error", err)
	}
}

// TestPoolSharedBudget: two concurrent fan-outs through one 2-token pool
// never exceed 2 units in flight in total.
func TestPoolSharedBudget(t *testing.T) {
	p := NewPool(2)
	var inFlight, maxSeen int32
	unit := func(int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			seen := atomic.LoadInt32(&maxSeen)
			if cur <= seen || atomic.CompareAndSwapInt32(&maxSeen, seen, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.ForEach(context.Background(), 200, unit); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if maxSeen > 2 {
		t.Fatalf("max in-flight units = %d, want <= budget 2", maxSeen)
	}
}

func TestPoolForEachError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	var ran int32
	err := p.ForEach(context.Background(), 1<<30, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if int(ran) > 1<<20 {
		t.Fatalf("%d units ran after early failure", ran)
	}
}

// awaitAll returns a unit body that blocks until n units are running at
// once, failing the test instead of hanging when they never are.
func awaitAll(t *testing.T, n int) func() {
	var started atomic.Int32
	all := make(chan struct{})
	return func() {
		if started.Add(1) == int32(n) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Errorf("only %d of %d units ever ran at once", started.Load(), n)
		}
	}
}

func TestDispatchNilBudgetUsesWorkers(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int32
	barrier := awaitAll(t, workers)
	err := Dispatch(nil, nil, 12, workers, func(i int) error {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if i < workers {
			barrier() // the first units only finish once all workers run
		}
		active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Fatalf("peak concurrency %d, want %d", got, workers)
	}
}

func TestDispatchBudgetDrawsTokens(t *testing.T) {
	p := NewPool(2)
	p.sem <- struct{}{} // an outside holder keeps one of the two tokens
	var active, peak atomic.Int32
	var ran atomic.Int32
	err := Dispatch(context.Background(), p, 20, 8, func(int) error {
		cur := active.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		ran.Add(1)
		active.Add(-1)
		return nil
	})
	<-p.sem
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Fatalf("%d units ran, want 20", ran.Load())
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("peak concurrency %d with one free token (workers=8 must be ignored), want 1", got)
	}

	// With every token held, nothing runs and cancellation still returns.
	p.sem <- struct{}{}
	p.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	err = Dispatch(ctx, p, 5, 2, func(int) error {
		t.Error("unit ran without a token")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDispatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, budget := range []*Pool{nil, NewPool(2)} {
		var ran atomic.Int32
		err := Dispatch(ctx, budget, 100, 2, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget=%v: err = %v, want context.Canceled", budget != nil, err)
		}
		if ran.Load() == 100 {
			t.Fatalf("budget=%v: cancelled fan-out ran every unit", budget != nil)
		}
	}
}

func TestDispatchFirstErrorInIndexOrderWins(t *testing.T) {
	const n = 8
	e2, e5 := errors.New("e2"), errors.New("e5")
	for _, budget := range []*Pool{nil, NewPool(n)} {
		barrier := awaitAll(t, n)
		err := Dispatch(context.Background(), budget, n, n, func(i int) error {
			barrier() // every unit runs before any fails
			switch i {
			case 2:
				return e2
			case 5:
				return e5
			}
			return nil
		})
		if !errors.Is(err, e2) {
			t.Fatalf("budget=%v: err = %v, want the index-2 error", budget != nil, err)
		}
	}
}
