package serve

import (
	"sync"
	"sync/atomic"

	"factordb/internal/core"
	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/world"
)

// finalSnap is the answer a chain hands a completed subscriber: the
// snapshot the view published in the epoch the sample target was met
// (stamped with that epoch), and the chain's write generation — how many
// DML mutations this chain had absorbed when the estimate completed.
// Sessions compare generations across chains to detect (and re-collect)
// answers that would otherwise blend pre- and post-write worlds.
type finalSnap struct {
	snap *core.Snapshot
	gen  int64
}

// subscriber is one query's stake in a physical view on one chain: how
// many fresh samples it still wants (target, counted from the view's
// sample count at attach time) and the channel the chain closes when the
// target is met. Just before closing done, the chain stores the view's
// final snapshot: the session must read its completed answer from
// there, because a write landing after completion resets the view's
// estimator and republishes the shared cell empty.
type subscriber struct {
	target int64
	start  int64 // physical view's sample count when this subscriber attached
	done   chan struct{}
	final  *atomic.Pointer[finalSnap]
}

// physicalView is one materialized view maintained exactly once per
// epoch, however many queries subscribe to it. Its estimator accumulates
// one sample per epoch since the view was created; subscribers meter
// their budgets against it via start offsets, and all of them read the
// same published snapshot cell. Query options that do not change the
// answer distribution — sample budget, confidence level — never reach
// this type: they are applied at snapshot-merge time in the session.
type physicalView struct {
	fp   string
	view *ivm.View
	est  *core.Estimator
	cell *world.Cell[core.Snapshot]
	subs map[viewID]*subscriber
	stat *viewStat
}

// viewStat is the externally readable shadow of a physical view: the
// health scraper and /statusz read it without entering the chain
// goroutine. The chain updates subs/samples under the registry's stats
// lock; the observation series carries its own lock.
type viewStat struct {
	fp      string
	subs    int
	samples int64
	series  *sampleSeries
}

// ViewStat is one live view's status on one chain, as reported by
// Engine.Status.
type ViewStat struct {
	Fingerprint string `json:"fingerprint"`
	Subscribers int    `json:"subscribers"`
	Samples     int64  `json:"samples"`
}

// viewRegistry is the per-chain shared-view table: it keys physical
// views by the structural fingerprint of their bound plan, so any number
// of concurrent queries with equal plans — whatever their SQL spelling
// or per-query options — cost one view maintenance per walk batch. Each
// physical view is a private operator tree (ivm.NewView): plans that are
// not equal share nothing, as in the paper's one view per query.
//
// The registry is owned by the chain goroutine; only sharedViews is safe
// to read from outside (it backs the factordb_shared_views gauge).
type viewRegistry struct {
	byFP  map[string]*physicalView
	bySub map[viewID]*physicalView
	size  atomic.Int64

	// statsMu guards the stats mirror (and the subs/samples fields of
	// every viewStat); the chain goroutine writes, scrapers read.
	statsMu sync.Mutex
	stats   map[string]*viewStat
}

func newViewRegistry() *viewRegistry {
	return &viewRegistry{
		byFP:  make(map[string]*physicalView),
		bySub: make(map[viewID]*physicalView),
		stats: make(map[string]*viewStat),
	}
}

// acquire attaches a subscriber to the physical view for bound's
// fingerprint, building and mounting the view if this is its first
// subscriber. It reports whether an existing view was reused.
func (r *viewRegistry) acquire(id viewID, bound *ra.Bound, target int64, done chan struct{},
	final *atomic.Pointer[finalSnap]) (pv *physicalView, hit bool, err error) {
	fp := bound.Fingerprint()
	pv = r.byFP[fp]
	if pv == nil {
		view, err := ivm.NewView(bound)
		if err != nil {
			return nil, false, err
		}
		pv = &physicalView{
			fp:   fp,
			view: view,
			est:  core.NewEstimator(),
			cell: &world.Cell[core.Snapshot]{},
			subs: make(map[viewID]*subscriber),
			stat: &viewStat{fp: fp, series: newSampleSeries()},
		}
		r.byFP[fp] = pv
		r.size.Store(int64(len(r.byFP)))
		r.statsMu.Lock()
		r.stats[fp] = pv.stat
		r.statsMu.Unlock()
	} else {
		hit = true
	}
	pv.subs[id] = &subscriber{target: target, start: pv.est.Samples(), done: done, final: final}
	r.bySub[id] = pv
	r.statsMu.Lock()
	pv.stat.subs = len(pv.subs)
	r.statsMu.Unlock()
	return pv, hit, nil
}

// dropSub detaches one subscriber (budget met, cancellation, or timeout).
// A view whose last subscriber leaves is evicted with its operator
// state. Unknown ids are no-ops, so completion and cancellation may race
// benignly.
func (r *viewRegistry) dropSub(id viewID) {
	pv := r.bySub[id]
	if pv == nil {
		return
	}
	delete(r.bySub, id)
	delete(pv.subs, id)
	r.statsMu.Lock()
	pv.stat.subs = len(pv.subs)
	if len(pv.subs) == 0 {
		delete(r.stats, pv.fp)
	}
	r.statsMu.Unlock()
	if len(pv.subs) == 0 {
		delete(r.byFP, pv.fp)
		r.size.Store(int64(len(r.byFP)))
	}
}

// noteSample records one walk batch's observation for a view: the chain
// goroutine calls it per epoch with the sampled answer's cardinality.
func (r *viewRegistry) noteSample(pv *physicalView, cardinality float64) {
	r.statsMu.Lock()
	pv.stat.samples = pv.est.Samples()
	r.statsMu.Unlock()
	pv.stat.series.push(cardinality)
}

// viewStats snapshots the live views' status; safe from any goroutine.
func (r *viewRegistry) viewStats() []ViewStat {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	out := make([]ViewStat, 0, len(r.stats))
	for _, s := range r.stats {
		out = append(out, ViewStat{Fingerprint: s.fp, Subscribers: s.subs, Samples: s.samples})
	}
	return out
}

// viewSeries returns the observation series for one view fingerprint
// (nil when the view is not live on this chain).
func (r *viewRegistry) viewSeries(fp string) *sampleSeries {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if s, ok := r.stats[fp]; ok {
		return s.series
	}
	return nil
}

// liveFingerprints lists the fingerprints of this chain's live views.
func (r *viewRegistry) liveFingerprints() []string {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	out := make([]string, 0, len(r.stats))
	for fp := range r.stats {
		out = append(out, fp)
	}
	return out
}

// empty reports whether no physical views are live (the chain may park).
func (r *viewRegistry) empty() bool { return len(r.byFP) == 0 }

// sharedViews reports the live physical-view count; safe from any
// goroutine.
func (r *viewRegistry) sharedViews() int64 { return r.size.Load() }
