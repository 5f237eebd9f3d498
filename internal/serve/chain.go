package serve

import (
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

// registerReq asks a chain to bind a plan against its world and subscribe
// the query to the matching shared view (creating it on first use). The
// reply carries the view's snapshot cell, or the bind error. final
// receives the completed subscriber's estimator snapshot just before
// done closes (see subscriber).
type registerReq struct {
	id     viewID
	plan   ra.Plan
	target int64
	done   chan struct{}
	final  *atomic.Pointer[finalSnap]
	reply  chan registerReply
}

type registerReply struct {
	cell *world.Cell[*core.Estimator]
	hit  bool // an existing shared view was reused
	err  error
}

// unregisterReq detaches a subscriber (query cancelled or timed out). The
// reply is closed once the subscription is gone so the caller knows no
// further completion signal will fire.
type unregisterReq struct {
	id    viewID
	reply chan struct{}
}

// resolveReq asks a chain to resolve a DML statement against its world
// into concrete row-level ops — without applying them. The write
// coordinator resolves once (on chain 0) and fans the identical op list
// out to every chain, so the clones never diverge.
type resolveReq struct {
	mut   ra.Mutation
	reply chan resolveReply
}

type resolveReply struct {
	ops []world.Op
	err error
}

// chainPhase marks one chain's completion of a write phase; traced
// writes collect these from every chain to span the fan-out's burn-in,
// delta-fold and republish stages on the coordinator's timeline.
type chainPhase uint8

const (
	phaseOpsApplied chainPhase = iota
	phaseBurnedIn
	phaseDeltaFolded
	phaseRepublished
	numWritePhases
)

// applyReq asks a chain to apply a resolved op list, burn in, and reset
// every live view's estimator so post-write snapshots carry post-write
// samples only. phases, when non-nil, receives one chainPhase per
// completed stage; the channel must be buffered for every chain's full
// phase set so the chain never blocks on a coordinator that stopped
// listening.
type applyReq struct {
	ops    []world.Op
	burnIn int
	phases chan<- chainPhase
	reply  chan error
}

// analyzeReq asks a chain to run one instrumented evaluation of a plan
// against its current world — the per-chain half of EXPLAIN ANALYZE.
type analyzeReq struct {
	plan  ra.Plan
	reply chan analyzeReply
}

type analyzeReply struct {
	stats *ra.StreamStats
	err   error
}

// chain is one member of the engine's pool: a private copy of the world
// walked by its own Metropolis-Hastings sampler. All views registered on
// the chain share the walk — one batch of k steps produces one sample for
// every in-flight query — and the view registry goes further: queries
// whose plans share a fingerprint share one physical view, so the
// view-maintenance cost of a batch is paid per distinct plan, not per
// query.
type chain struct {
	id      int
	steps   int // k, walk-steps per epoch
	log     *world.ChangeLog
	sampler *mcmc.Sampler

	ctl  chan any // registerReq | unregisterReq
	stop chan struct{}
	done chan struct{}
	reg  *viewRegistry

	// curEpoch mirrors log.Epoch() for readers outside the chain
	// goroutine (health checks); the log itself is goroutine-private.
	curEpoch atomic.Int64

	// writeGen counts the DML mutations this chain has absorbed. Written
	// only by the chain goroutine; completed subscribers carry it out in
	// their final snapshots so sessions can detect cross-chain blends,
	// and /statusz reads it atomically.
	writeGen atomic.Int64

	// stepsN/acceptedN mirror the sampler's counters for readers outside
	// the chain goroutine (per-chain health gauges; the sampler itself is
	// goroutine-private). stepRate turns stepsN into steps/sec between
	// scrapes.
	stepsN    atomic.Int64
	acceptedN atomic.Int64
	stepRate  *rateTracker

	// stepsC/acceptedC are this chain's children of the labeled
	// factordb_chain_* counter families — resolved once so the walk hot
	// loop pays one atomic add, same as the global counters.
	stepsC    *metrics.Counter
	acceptedC *metrics.Counter

	m *engineMetrics
}

func newChain(id, steps int, log *world.ChangeLog, p mcmc.Proposer, seed int64, m *engineMetrics) *chain {
	lbl := fmt.Sprintf("%d", id)
	return &chain{
		id:        id,
		steps:     steps,
		log:       log,
		sampler:   mcmc.NewSampler(p, seed),
		ctl:       make(chan any),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		reg:       newViewRegistry(),
		stepRate:  newRateTracker(time.Now()),
		stepsC:    m.chainSteps.With(lbl),
		acceptedC: m.chainAccepted.With(lbl),
		m:         m,
	}
}

// run is the chain goroutine: burn in, then alternate between handling
// control messages at epoch boundaries and walking. With no views
// registered the chain parks on the control channel instead of burning
// CPU; the world keeps its state, so mixing accumulates across queries.
func (c *chain) run(burnIn int) {
	defer close(c.done)
	if burnIn > 0 {
		c.walk(burnIn)
		c.log.Drain()
		c.curEpoch.Store(c.log.Epoch())
	}
	for {
		if c.reg.empty() {
			select {
			case <-c.stop:
				return
			case msg := <-c.ctl:
				c.handle(msg)
			}
			continue
		}
		select {
		case <-c.stop:
			return
		case msg := <-c.ctl:
			c.handle(msg)
			continue
		default:
		}
		c.epoch()
	}
}

// epoch advances the walk by k steps, folds the resulting Δ⁻/Δ⁺ delta
// into every physical view exactly once — regardless of how many queries
// subscribe to each — and publishes one fresh estimator snapshot per
// view, shared by all its subscribers. Subscribers whose sample budgets
// are met complete here; a view's last completion evicts it.
func (c *chain) epoch() {
	c.walk(c.steps)
	d := c.log.Drain()
	epoch := c.log.Epoch()
	c.curEpoch.Store(epoch)
	c.reg.graph.NextRound()
	for _, pv := range c.reg.byFP {
		pv.view.Apply(d)
		// One health observation per batch: the sampled answer's
		// cardinality, which AddSample reports as it counts — a
		// per-sample scalar the cross-chain R̂/ESS diagnostics can be
		// computed over without a second pass over the answer.
		card := pv.est.AddSample(pv.view.Result())
		c.reg.noteSample(pv, float64(card))
		// Every subscriber receives this sample; the walk and the view
		// maintenance were paid once.
		c.m.samples.Add(int64(len(pv.subs)))
		pv.cell.Publish(epoch, pv.est.Clone())
		for id, sub := range pv.subs {
			if pv.est.Samples()-sub.start >= sub.target {
				// Hand the completed subscriber its own snapshot before
				// waking it: the shared cell may be reset by a later
				// write before the session gets around to merging.
				if sub.final != nil {
					sub.final.Store(&finalSnap{est: pv.est.Clone(), epoch: epoch, gen: c.writeGen.Load()})
				}
				close(sub.done)
				c.reg.dropSub(id)
			}
		}
	}
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
	c.stepsN.Add(ds)
	c.acceptedN.Add(da)
}

func (c *chain) handle(msg any) {
	switch req := msg.(type) {
	case registerReq:
		cell, hit, err := c.register(req)
		req.reply <- registerReply{cell: cell, hit: hit, err: err}
	case unregisterReq:
		c.reg.dropSub(req.id)
		close(req.reply)
	case resolveReq:
		ops, err := world.ResolveMutation(c.log.DB(), req.mut)
		req.reply <- resolveReply{ops: ops, err: err}
	case applyReq:
		req.reply <- c.applyWrite(req.ops, req.burnIn, req.phases)
	case analyzeReq:
		// Like every control message this runs at an epoch boundary, so
		// the world it observes is the one the chain's views match.
		st, err := analyzePlan(c.log.DB(), req.plan)
		req.reply <- analyzeReply{stats: st, err: err}
	default:
		panic(fmt.Sprintf("serve: unknown chain control message %T", msg))
	}
}

// applyWrite is the per-chain half of a write: replay the resolved ops
// through the change log (feeding Δ⁻/Δ⁺ exactly like sampler moves),
// walk burnIn steps so the chain re-equilibrates around the mutated
// world, fold the combined delta into every live view once, and reset
// every view's estimator — pre-write samples estimate marginals of a
// distribution that no longer exists, so post-write snapshots must carry
// post-write samples only. Subscriber budgets restart with the
// estimators: a query in flight across a write completes with its full
// budget of post-write samples.
//
// Control messages are handled at epoch boundaries, so the store holds no
// pending sampler delta when the write lands: the write closes its own
// epoch and every view is consistent with the mutated world from the
// published snapshot on.
func (c *chain) applyWrite(ops []world.Op, burnIn int, phases chan<- chainPhase) error {
	mark := func(p chainPhase) {
		if phases != nil {
			phases <- p
		}
	}
	if _, err := c.log.ApplyOps(ops); err != nil {
		return err
	}
	c.writeGen.Add(1)
	mark(phaseOpsApplied)
	if burnIn > 0 {
		c.walk(burnIn)
	}
	mark(phaseBurnedIn)
	d := c.log.Drain()
	epoch := c.log.Epoch()
	c.curEpoch.Store(epoch)
	c.reg.graph.NextRound()
	for _, pv := range c.reg.byFP {
		pv.view.Apply(d)
		pv.est = core.NewEstimator()
		for _, sub := range pv.subs {
			sub.start = 0
		}
		// Pre-write observations describe a distribution that no longer
		// exists; the convergence diagnostics restart with the estimator.
		pv.stat.series.reset()
	}
	mark(phaseDeltaFolded)
	for _, pv := range c.reg.byFP {
		// Publish the empty estimator: the cell must not keep serving the
		// pre-write snapshot to readers that merge before the next batch.
		pv.cell.Publish(epoch, pv.est.Clone())
	}
	mark(phaseRepublished)
	return nil
}

// register binds the plan against this chain's world and subscribes the
// query through the view registry. Control messages are only handled at
// epoch boundaries, right after a Drain, so the store holds no pending
// deltas and a freshly mounted view is consistent with the world from its
// first sample on; an existing view is reused as-is (its estimator state
// is a valid prefix of the same chain's walk).
func (c *chain) register(req registerReq) (*world.Cell[*core.Estimator], bool, error) {
	bound, err := ra.Bind(c.log.DB(), req.plan)
	if err != nil {
		return nil, false, err
	}
	pv, hit, err := c.reg.acquire(req.id, bound, req.target, req.done, req.final)
	if err != nil {
		return nil, false, err
	}
	if hit {
		c.m.viewHits.Inc()
	}
	return pv.cell, hit, nil
}
