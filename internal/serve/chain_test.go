package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"factordb/internal/exp"
)

// holdView subscribes a never-completing query of sql to chain 0 — a
// standing dashboard that pins the shared view — and returns the
// registration for the caller to detach.
func holdView(tb testing.TB, eng *Engine, sql string) *registration {
	tb.Helper()
	comp, _, err := eng.plans.CompileQuery(sql)
	if err != nil {
		tb.Fatal(err)
	}
	c := eng.chains[0]
	reg := &registration{c: c, id: viewID(eng.nextID.Add(1)), done: make(chan handoff, 1)}
	if err := c.call(context.Background(), func() error {
		_, err := c.register(reg, comp.Stmt, comp.Fingerprint, 1<<62)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	return reg
}

// callResult runs c.call in a goroutine and returns its error on a
// channel, so a test can fail on a hang instead of blocking forever.
func callResult(ctx context.Context, c *chain, fn func() error) <-chan error {
	out := make(chan error, 1)
	go func() { out <- c.call(ctx, fn) }()
	return out
}

func await(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("chain call hung")
		return nil
	}
}

// TestChainCall pins the mailbox contract every request to a chain
// relies on: delivery gives up on ctx or shutdown; a delivered closure
// runs on the chain goroutine and call returns its error only once it
// has returned; after delivery only shutdown ends the wait.
func TestChainCall(t *testing.T) {
	t.Run("cancelled while busy", func(t *testing.T) {
		eng := testEngine(t, Config{Chains: 1, Seed: 61})
		c := eng.chains[0]
		entered, release := make(chan struct{}), make(chan struct{})
		blocker := callResult(context.Background(), c, func() error {
			close(entered)
			<-release
			return nil
		})
		<-entered

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Bool
		if err := c.call(ctx, func() error { ran.Store(true); return nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("call with a cancelled ctx on a busy chain = %v, want context.Canceled", err)
		}
		close(release)
		if err := await(t, blocker); err != nil {
			t.Fatal(err)
		}
		// The chain runs closures in delivery order: once this one has
		// run, the cancelled one can no longer be pending.
		if err := c.call(context.Background(), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if ran.Load() {
			t.Fatal("a closure whose delivery was cancelled ran")
		}
	})

	t.Run("runs on the chain goroutine", func(t *testing.T) {
		eng := testEngine(t, Config{Chains: 1, Seed: 67})
		c := eng.chains[0]
		sentinel := errors.New("from the chain")
		var onChain, returned atomic.Bool
		err := c.call(context.Background(), func() error {
			buf := make([]byte, 8<<10)
			onChain.Store(strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*chain).run"))
			time.Sleep(20 * time.Millisecond)
			returned.Store(true)
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("call = %v, want the closure's own error", err)
		}
		if !returned.Load() {
			t.Fatal("call returned before the closure did")
		}
		if !onChain.Load() {
			t.Fatal("the closure did not run on the chain goroutine")
		}
		if err := c.call(context.Background(), func() error { return nil }); err != nil {
			t.Fatalf("call of a nil-returning closure = %v", err)
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		// A stand-in chain goroutine decides exactly when a closure is
		// delivered and when the chain stops.
		stub := func() *chain { return &chain{ctl: make(chan func()), done: make(chan struct{})} }
		var ran atomic.Bool
		fn := func() error { ran.Store(true); return nil }

		undelivered := stub()
		errc := callResult(context.Background(), undelivered, fn)
		close(undelivered.done)
		if err := await(t, errc); !errors.Is(err, ErrClosed) {
			t.Fatalf("undelivered call at shutdown = %v, want ErrClosed", err)
		}

		delivered := stub()
		errc = callResult(context.Background(), delivered, fn)
		<-delivered.ctl // taken, never run: the chain stops mid-request
		close(delivered.done)
		if err := await(t, errc); !errors.Is(err, ErrClosed) {
			t.Fatalf("delivered call at shutdown = %v, want ErrClosed", err)
		}
		if ran.Load() {
			t.Fatal("stand-in chain ran a closure")
		}

		// A real engine closing under a queued call: the call ends either
		// way, and nil means the closure ran.
		eng := testEngine(t, Config{Chains: 1, Seed: 71})
		c := eng.chains[0]
		entered, release := make(chan struct{}), make(chan struct{})
		blocker := callResult(context.Background(), c, func() error {
			close(entered)
			<-release
			return nil
		})
		<-entered
		queued := callResult(context.Background(), c, fn)
		closed := make(chan struct{})
		go func() { eng.Close(); close(closed) }()
		close(release)
		if err := await(t, blocker); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("blocker = %v", err)
		}
		switch err := await(t, queued); {
		case err == nil && !ran.Load():
			t.Fatal("queued call returned nil without running its closure")
		case err != nil && !errors.Is(err, ErrClosed):
			t.Fatalf("queued call at shutdown = %v, want nil or ErrClosed", err)
		}
		<-closed
		if err := c.call(context.Background(), fn); !errors.Is(err, ErrClosed) {
			t.Fatalf("call after Close = %v, want ErrClosed", err)
		}
	})
}

// TestPeekAfterHandoff pins what a peek costs: on a live subscription it
// takes one snapshot (factordb_snapshots_total), and on one that already
// completed or was detached it returns the zero handoff and takes none.
func TestPeekAfterHandoff(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 79})
	c := eng.chains[0]
	ctx := context.Background()
	comp, _, err := eng.plans.CompileQuery(exp.Query1)
	if err != nil {
		t.Fatal(err)
	}
	completed := &registration{c: c, id: viewID(eng.nextID.Add(1)), done: make(chan handoff, 1)}
	if err := c.call(ctx, func() error {
		_, err := c.register(completed, comp.Stmt, comp.Fingerprint, 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-completed.done:
		if h.snap == nil || h.stopped {
			t.Fatalf("completion handoff = %+v", h)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a 2-sample subscription never completed")
	}
	detached := holdView(t, eng, exp.Query1)
	if h := detached.detach(); h.snap == nil {
		t.Fatal("detach handed off no estimate")
	}

	before := eng.m.snapshots.Value()
	for name, r := range map[string]*registration{"completed": completed, "detached": detached} {
		if h := r.peek(ctx); h != (handoff{}) {
			t.Errorf("peek on a %s subscription = %+v, want nothing", name, h)
		}
	}
	if got := eng.m.snapshots.Value() - before; got != 0 {
		t.Errorf("peeks on settled subscriptions took %d snapshots, want 0", got)
	}

	live := holdView(t, eng, exp.Query1)
	defer live.detach()
	before = eng.m.snapshots.Value()
	if h := live.peek(ctx); h.snap == nil || h.stopped {
		t.Errorf("peek on a live subscription = %+v, want its estimate", h)
	}
	if got := eng.m.snapshots.Value() - before; got != 1 {
		t.Errorf("a peek on a live subscription took %d snapshots, want 1", got)
	}
}
