package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"factordb/internal/core"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/world"
)

// viewID identifies one query's subscription to a view within the engine.
type viewID int64

// chain is one member of the engine's pool: a private copy of the world
// walked by its own Metropolis-Hastings sampler. All views registered on
// the chain share the walk — one batch of k steps produces one sample for
// every in-flight query — and the view registry goes further: queries
// whose plans share a fingerprint share one physical view, so the
// view-maintenance cost of a batch is paid per distinct plan, not per
// query.
//
// The world, the sampler and the registry belong to the chain goroutine.
// Every request from outside — subscribe or detach a query, apply a
// write the prototype resolved, EXPLAIN ANALYZE of a plan that
// reads a hidden column — is a closure the chain runs at an epoch
// boundary (see call), when the store holds no pending delta and every
// view matches the world.
type chain struct {
	id      int
	steps   int // k, walk-steps per epoch
	log     *world.ChangeLog
	sampler *mcmc.Sampler

	ctl  chan func()
	stop chan struct{}
	done chan struct{}
	reg  *viewRegistry

	// curEpoch mirrors log.Epoch() for readers outside the chain
	// goroutine (health checks); the log itself is goroutine-private.
	curEpoch atomic.Int64

	// writeGen counts the DML mutations this chain has absorbed. Written
	// only by the chain goroutine; every handoff carries it out so
	// sessions can detect cross-chain blends, and /statusz reads it
	// atomically.
	writeGen atomic.Int64

	// stepsC/acceptedC are this chain's children of the labeled
	// factordb_chain_* counter families — resolved once so the walk hot
	// loop pays one atomic add, same as the global counters — and the
	// readers' view of the sampler's counters outside the chain goroutine
	// (per-chain health gauges, Status; the sampler itself is
	// goroutine-private). stepRate turns stepsC into steps/sec between
	// scrapes.
	stepsC    *metrics.Counter
	acceptedC *metrics.Counter
	stepRate  *rateTracker

	m *engineMetrics
}

func newChain(id, steps int, log *world.ChangeLog, p mcmc.Proposer, seed int64, m *engineMetrics) *chain {
	lbl := fmt.Sprintf("%d", id)
	return &chain{
		id:        id,
		steps:     steps,
		log:       log,
		sampler:   mcmc.NewSampler(p, seed),
		ctl:       make(chan func()),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		reg:       newViewRegistry(),
		stepRate:  newRateTracker(time.Now()),
		stepsC:    m.chainSteps.With(lbl),
		acceptedC: m.chainAccepted.With(lbl),
		m:         m,
	}
}

// run is the chain goroutine: burn in, then alternate between running
// delivered closures at epoch boundaries and walking. With no views
// registered the chain parks on the mailbox instead of burning CPU; the
// world keeps its state, so mixing accumulates across queries.
func (c *chain) run(burnIn int) {
	defer close(c.done)
	if burnIn > 0 {
		c.walk(burnIn)
		c.log.Discard() // no view is mounted yet
		c.curEpoch.Store(c.log.Epoch())
	}
	for {
		if c.reg.empty() {
			select {
			case <-c.stop:
				return
			case fn := <-c.ctl:
				fn()
			}
			continue
		}
		select {
		case <-c.stop:
			// Hand every live subscriber the samples walked, so a
			// session that shutdown cuts short merges them.
			for _, pv := range c.reg.byFP {
				h := c.handOff(pv, true)
				for _, sub := range pv.subs {
					sub.done <- h
				}
			}
			return
		case fn := <-c.ctl:
			fn()
			continue
		default:
		}
		c.epoch()
	}
}

// call hands fn to the chain goroutine, which runs it at its next epoch
// boundary, and returns fn's error once fn has returned. Delivery gives
// up on ctx or engine shutdown; once fn is delivered ctx no longer
// counts — fn is running on the chain's world and cannot be taken back —
// and only shutdown (ErrClosed) ends the wait early.
func (c *chain) call(ctx context.Context, fn func() error) error {
	reply := make(chan error, 1)
	select {
	case c.ctl <- func() { reply <- fn() }:
	case <-c.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-c.done:
		return ErrClosed
	}
}

// epoch advances the walk by k steps and folds the resulting Δ⁻/Δ⁺
// delta into every physical view exactly once — regardless of how many
// queries subscribe to each. Subscribers whose sample budgets are met
// complete here, and ranked ones at a look get that look, each receiving
// the handoff of one snapshot shared by every subscriber handed off to
// in the same epoch; a view's last completion evicts it. An epoch in
// which nobody is handed off to copies nothing.
func (c *chain) epoch() {
	c.walk(c.steps)
	d := c.log.Drain()
	c.curEpoch.Store(c.log.Epoch())
	for _, pv := range c.reg.byFP {
		pv.view.Apply(d)
		// One health observation per batch: the sampled answer's
		// cardinality, the answer table's running count of present
		// tuples — a per-sample scalar the cross-chain R̂/ESS
		// diagnostics can be computed over without a pass over the
		// answer. AddSample itself visits only the tuples that entered
		// or left the answer in this batch.
		card := pv.est.AddSample(pv.view.Result())
		c.reg.noteSample(pv, float64(card))
		// Every subscriber receives this sample; the walk and the view
		// maintenance were paid once.
		c.m.samples.Add(int64(len(pv.subs)))
		var h handoff
		for id, sub := range pv.subs {
			n := pv.est.Samples() - sub.start
			if n < sub.next {
				continue
			}
			if h.snap == nil {
				h = c.handOff(pv, false)
			}
			if n >= sub.target {
				sub.done <- h // never blocks: done holds every look and this
				c.reg.dropSub(id)
				continue
			}
			sub.done <- handoff{snap: h.snap, epoch: h.epoch, gen: h.gen, look: true}
			sub.next = min(2*sub.next, sub.target)
		}
	}
}

// handOff copies pv's current estimate into a snapshot handed off with
// the chain's epoch and write generation.
func (c *chain) handOff(pv *physicalView, stopped bool) handoff {
	c.m.snapshots.Inc()
	return handoff{snap: pv.est.Snapshot(), epoch: c.log.Epoch(), gen: c.writeGen.Load(), stopped: stopped}
}

// detach drops subscriber id and hands back the current estimate of the
// view it read, so a session abandoning it (deadline, cancellation,
// ranked early stop) merges every sample walked so far. An id that
// already completed, was detached or was never registered gets the zero
// handoff and costs no snapshot.
func (c *chain) detach(id viewID) (h handoff) {
	if pv := c.reg.bySub[id]; pv != nil {
		h = c.handOff(pv, false)
		c.reg.dropSub(id)
	}
	return h
}

// walk runs n MH steps and feeds the global and per-chain
// step/acceptance counters.
func (c *chain) walk(n int) {
	s0, a0 := c.sampler.Steps(), c.sampler.Accepted()
	c.sampler.Run(n)
	ds, da := c.sampler.Steps()-s0, c.sampler.Accepted()-a0
	c.m.steps.Add(ds)
	c.m.accepted.Add(da)
	c.stepsC.Add(ds)
	c.acceptedC.Add(da)
}

// applyWrite is the per-chain half of a write: replay the resolved ops
// through the change log (feeding Δ⁻/Δ⁺ exactly like sampler moves),
// walk burnIn steps so the chain re-equilibrates around the mutated
// world, fold the combined delta into every live view once, and reset
// every view's estimator — pre-write samples estimate marginals of a
// distribution that no longer exists, so post-write handoffs must carry
// post-write samples only. Subscriber budgets restart with the
// estimators: a query in flight across a write completes with its full
// budget of post-write samples; a ranked subscriber's next look stays.
//
// It runs at an epoch boundary (see call), so the store holds no pending
// sampler delta when the write lands: the write closes its own epoch and
// every view is consistent with the mutated world from then on. ends
// records when the ops were applied, the burn-in walked and the delta
// folded — the phase marks a traced write spans.
func (c *chain) applyWrite(ops []world.Op, burnIn int) (ends [3]time.Time, err error) {
	if _, err := c.log.ApplyOps(ops); err != nil {
		return ends, err
	}
	c.writeGen.Add(1)
	ends[0] = time.Now()
	if burnIn > 0 {
		c.walk(burnIn)
	}
	ends[1] = time.Now()
	d := c.log.Drain()
	c.curEpoch.Store(c.log.Epoch())
	for _, pv := range c.reg.byFP {
		pv.view.Apply(d)
		// The fresh estimator's first sample compares every slot of
		// the view's answer, so tuples present only before the write
		// count nowhere.
		pv.est = core.NewEstimator()
		for _, sub := range pv.subs {
			sub.start = 0
		}
		// Pre-write observations describe a distribution that no longer
		// exists; the convergence diagnostics restart with the estimator.
		pv.stat.series.reset()
	}
	ends[2] = time.Now()
	return ends, nil
}

// register subscribes reg to the shared view of stmt (fingerprint fp);
// hit reports that a live view was reused, at no bind, copy or hash.
// It runs at an epoch boundary, right after a Drain, so the store holds
// no pending deltas and a freshly mounted view is consistent with the
// world from its first sample on; an existing view is reused as-is (its
// estimator state is a valid prefix of the same chain's walk).
func (c *chain) register(reg *registration, stmt *ra.Bound, fp string, target int64) (hit bool, err error) {
	hit, err = c.reg.acquire(reg, stmt, fp, c.log.DB(), target)
	if hit {
		c.m.viewHits.Inc()
	}
	return hit, err
}
