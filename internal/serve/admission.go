package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned when both the evaluation slots and the wait
// queue are full. Callers (the HTTP layer) translate it to 503 so load
// sheds at the edge instead of building an unbounded backlog of views on
// every chain.
var ErrOverloaded = errors.New("factordb: overloaded")

// admission is a counting semaphore with a bounded wait queue.
type admission struct {
	slots    chan struct{} // capacity = max concurrent
	waiting  atomic.Int64
	maxQueue int64
	running  atomic.Int64
}

func newAdmission(maxConcurrent, maxQueued int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueued),
	}
}

// acquire takes an evaluation slot, waiting in the bounded queue if all
// slots are busy. It fails fast with ErrOverloaded when the queue is
// full, and honors ctx while waiting.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.running.Add(1)
		return nil
	default:
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return ErrOverloaded
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.running.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by a successful acquire.
func (a *admission) release() {
	a.running.Add(-1)
	<-a.slots
}

// inFlight reports queries currently holding a slot.
func (a *admission) inFlight() int64 { return a.running.Load() }
