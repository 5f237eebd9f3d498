package ra

import (
	"factordb/internal/relstore"
)

// Eval fully evaluates a bound plan against the current database contents,
// returning a materialized bag. This is the "run the whole query on the
// sampled world" path of the paper's basic evaluator (Algorithm 3).
//
// Evaluation is a thin shell over the streaming executor: the plan is
// compiled with Stream (operators fused into one lazy pipeline) and
// only the final result is materialized.
// Callers that consume rows one at a time — the sampling loop feeding an
// estimator — should use Stream directly and skip this materialization.
func Eval(b *Bound) (*Bag, error) {
	it, owned, err := Stream(b)
	if err != nil {
		return nil, err
	}
	out := NewBag(b.Schema)
	var kbuf []byte
	it(func(t relstore.Tuple, n int64) bool {
		kbuf = t.AppendKey(kbuf[:0])
		out.AddKeyedBytes(kbuf, t, n, !owned)
		return true
	})
	return out, nil
}

// aggAccum accumulates one aggregate over a group during evaluation.
type aggAccum struct {
	n     int64   // COUNT / COUNT_IF
	sumI  int64   // SUM over ints
	sumF  float64 // SUM over floats / AVG numerator
	cnt   int64   // AVG denominator / MIN-MAX presence
	first bool
	best  relstore.Value // MIN / MAX
}

func accumulate(acc *aggAccum, a *BoundAgg, t relstore.Tuple, n int64) {
	switch a.Fn {
	case FnCount:
		acc.n += n
	case FnCountIf:
		if a.Pred.Eval(t).AsBool() {
			acc.n += n
		}
	case FnSum:
		v := t[a.ArgIdx]
		if a.Out == relstore.TInt {
			acc.sumI += n * v.AsInt()
		} else {
			acc.sumF += float64(n) * v.AsFloat()
		}
	case FnAvg:
		acc.sumF += float64(n) * t[a.ArgIdx].AsFloat()
		acc.cnt += n
	case FnMin, FnMax:
		v := t[a.ArgIdx]
		acc.cnt += n
		if !acc.first {
			acc.first = true
			acc.best = v
			return
		}
		if a.Fn == FnMin && v.Less(acc.best) {
			acc.best = v
		}
		if a.Fn == FnMax && acc.best.Less(v) {
			acc.best = v
		}
	}
}

func finishAgg(acc *aggAccum, a *BoundAgg) (relstore.Value, bool) {
	switch a.Fn {
	case FnCount, FnCountIf:
		return relstore.Int(acc.n), true
	case FnSum:
		if a.Out == relstore.TInt {
			return relstore.Int(acc.sumI), true
		}
		return relstore.Float(acc.sumF), true
	case FnAvg:
		if acc.cnt == 0 {
			return relstore.Value{}, false
		}
		return relstore.Float(acc.sumF / float64(acc.cnt)), true
	case FnMin, FnMax:
		if !acc.first {
			return relstore.Value{}, false
		}
		return acc.best, true
	}
	return relstore.Value{}, false
}
