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

// TestRankedLooks pins a ranked subscription's look schedule and what
// its handoffs cost: looks at exactly the scheduled per-chain sample
// counts, before and after a write lands between them, then the closing
// handoff, each taking one snapshot (factordb_snapshots_total); a
// subscription nobody reads never blocks its chain, and detaching it
// once settled returns its newest handoff; detaching a settled
// subscription takes no snapshot.
func TestRankedLooks(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 79})
	c := eng.chains[0]
	ctx := context.Background()
	comp, _, err := eng.plans.CompileQuery(exp.Query1)
	if err != nil {
		t.Fatal(err)
	}
	const first, target = 16, 400
	want := []int64{16, 32, 64, 128, 256, 400} // five looks, then the closing handoff
	subscribe := func() *registration {
		t.Helper()
		r := &registration{c: c, id: viewID(eng.nextID.Add(1)), look: first, done: make(chan handoff, len(want))}
		if err := c.call(ctx, func() error {
			_, err := c.register(r, comp.Stmt, comp.Fingerprint, target)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	next := func(r *registration) handoff {
		t.Helper()
		select {
		case h := <-r.done:
			return h
		case <-time.After(10 * time.Second):
			t.Fatal("a scheduled handoff never came")
			return handoff{}
		}
	}

	before := eng.m.snapshots.Value()
	read := subscribe()
	for i, n := range want {
		h := next(read)
		if h.snap == nil || h.stopped || h.snap.Samples() != n || h.look != (i < len(want)-1) {
			t.Fatalf("handoff %d = %+v, want %d samples and look=%v", i, h, n, i < len(want)-1)
		}
		if i == 0 {
			// The write restarts the sample count, not the schedule: the
			// looks still to come fall at the scheduled post-write counts.
			if _, err := eng.Exec(ctx, `UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = 5`, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(want)-1 && h.gen != 1 {
			t.Errorf("closing handoff from write generation %d, want 1", h.gen)
		}
	}
	if got := eng.m.snapshots.Value() - before; got != int64(len(want)) {
		t.Errorf("%d looks and a completion took %d snapshots, want %d", len(want)-1, got, len(want))
	}

	unread := subscribe()
	for deadline := time.Now().Add(10 * time.Second); len(unread.done) < cap(unread.done); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an unread subscription got %d of %d handoffs", len(unread.done), cap(unread.done))
		}
	}
	before = eng.m.snapshots.Value()
	if h := unread.detach(); h.snap == nil || h.look || h.snap.Samples() != target {
		t.Errorf("detach of a settled subscription = %+v, want its closing handoff", h)
	}
	for name, r := range map[string]*registration{"read-out": read, "detached": unread} {
		if h := r.detach(); h != (handoff{}) {
			t.Errorf("detach of a %s subscription = %+v, want nothing", name, h)
		}
	}
	if got := eng.m.snapshots.Value() - before; got != 0 {
		t.Errorf("detaches of settled subscriptions took %d snapshots, want 0", got)
	}
}
