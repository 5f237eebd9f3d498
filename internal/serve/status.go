package serve

import (
	"math"
	"time"
)

// EngineStatus is the engine's introspection snapshot behind GET /statusz:
// what the pool is doing right now — live views with refcounts, per-chain
// sampler health, cache occupancy — in one consistent-enough read.
// Consistency caveat: the fields are gathered lock-free from per-chain
// mirrors, so a snapshot taken during a write may show chains one
// generation apart; that skew is itself the signal the WriteGens field
// exists to expose.
type EngineStatus struct {
	Chains    int           `json:"chains"`
	Epoch     int64         `json:"epoch"`
	DataEpoch int64         `json:"write_epoch"`
	UptimeS   float64       `json:"uptime_s"`
	InFlight  int64         `json:"queries_inflight"`
	Cache     CacheStatus   `json:"cache"`
	Pool      []ChainStatus `json:"pool"`
	Views     []ViewHealth  `json:"views"`
}

// CacheStatus reports result-cache occupancy (all zero when disabled).
type CacheStatus struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// ChainStatus is one pooled chain's sampler health: cumulative walk
// volume, the acceptance rate over it, and how many DML mutations the
// chain has absorbed — its write generation; skew across the pool means
// a write is mid-fan-out.
type ChainStatus struct {
	ID             int     `json:"id"`
	Epoch          int64   `json:"epoch"`
	Steps          int64   `json:"steps"`
	Accepted       int64   `json:"accepted"`
	AcceptanceRate float64 `json:"acceptance_rate"`
	WriteGen       int64   `json:"write_gen"`
	Views          int64   `json:"views"`
}

// ViewHealth is one live shared view aggregated across the pool: its
// plan fingerprint, the total subscriber refcount, the per-chain sample
// counts' minimum (the least-served chain bounds merged answers), and
// the cross-chain convergence diagnostics over the view's per-sample
// answer cardinality. RHat and ESS are nil until enough observations
// accumulate (at least 4 per chain, 2+ split sequences).
type ViewHealth struct {
	Fingerprint string   `json:"fingerprint"`
	Subscribers int      `json:"subscribers"`
	Chains      int      `json:"chains"`
	MinSamples  int64    `json:"min_samples"`
	RHat        *float64 `json:"rhat"`
	ESS         *float64 `json:"ess"`
}

// finiteOrNil drops the diagnostics' NaN/Inf sentinels to nil for JSON.
func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// Status assembles the introspection snapshot. Safe to call concurrently
// with queries and writes; see EngineStatus for the consistency contract.
func (e *Engine) Status() EngineStatus {
	st := EngineStatus{
		Chains:    e.cfg.Chains,
		Epoch:     e.Epoch(),
		DataEpoch: e.dataEpoch.Load(),
		UptimeS:   time.Since(e.start).Seconds(),
		InFlight:  e.admit.inFlight(),
		Cache:     CacheStatus{Entries: e.cache.len(), Capacity: e.cache.cap},
	}
	for _, c := range e.chains {
		steps, acc := c.stepsN.Load(), c.acceptedN.Load()
		var rate float64
		if steps > 0 {
			rate = float64(acc) / float64(steps)
		}
		st.Pool = append(st.Pool, ChainStatus{
			ID:             c.id,
			Epoch:          c.curEpoch.Load(),
			Steps:          steps,
			Accepted:       acc,
			AcceptanceRate: rate,
			WriteGen:       c.writeGen.Load(),
			Views:          c.reg.sharedViews(),
		})
	}
	st.Views = e.viewHealth()
	return st
}

// viewHealth aggregates each live fingerprint's per-chain stats and
// observation series into one ViewHealth row.
func (e *Engine) viewHealth() []ViewHealth {
	type agg struct {
		subs   int
		chains int
		minS   int64
		series [][]float64
	}
	grouped := make(map[string]*agg)
	for _, c := range e.chains {
		for _, vs := range c.reg.viewStats() {
			a := grouped[vs.Fingerprint]
			if a == nil {
				a = &agg{minS: math.MaxInt64}
				grouped[vs.Fingerprint] = a
			}
			a.subs += vs.Subscribers
			a.chains++
			if vs.Samples < a.minS {
				a.minS = vs.Samples
			}
			if s := c.reg.viewSeries(vs.Fingerprint); s != nil {
				a.series = append(a.series, s.snapshot())
			}
		}
	}
	out := make([]ViewHealth, 0, len(grouped))
	for fp, a := range grouped {
		out = append(out, ViewHealth{
			Fingerprint: fp,
			Subscribers: a.subs,
			Chains:      a.chains,
			MinSamples:  a.minS,
			RHat:        finiteOrNil(splitRHat(a.series)),
			ESS:         finiteOrNil(effectiveSampleSize(a.series)),
		})
	}
	sortViewHealth(out)
	return out
}

func sortViewHealth(vs []ViewHealth) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Fingerprint < vs[j-1].Fingerprint; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
