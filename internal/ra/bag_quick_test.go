package ra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"factordb/internal/relstore"
)

// Property-based tests of the signed-bag algebra, the foundation of the
// incremental view maintenance engine.

type bagOp struct {
	Val int8
	N   int8
}

func applyOps(ops []bagOp) *Bag {
	sch := &RowSchema{Cols: []OutCol{{Ref: C("", "x"), Type: relstore.TInt}}}
	b := NewBag(sch)
	for _, op := range ops {
		b.Add(relstore.Tuple{relstore.Int(int64(op.Val))}, int64(op.N))
	}
	return b
}

func TestBagAddCommutesQuick(t *testing.T) {
	f := func(ops []bagOp, seed int64) bool {
		a := applyOps(ops)
		shuffled := append([]bagOp{}, ops...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return a.Equal(applyOps(shuffled))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagInverseQuick(t *testing.T) {
	// b + (−1)·b is always empty.
	f := func(ops []bagOp) bool {
		b := applyOps(ops)
		out := NewBag(b.Schema)
		b.Each(func(k string, row *BagRow) bool {
			out.AddKeyed(k, row.Tuple, row.N)
			return true
		})
		b.Each(func(k string, row *BagRow) bool {
			out.AddKeyed(k, row.Tuple, -row.N)
			return true
		})
		return out.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagSizeIsSumOfCountsQuick(t *testing.T) {
	f := func(ops []bagOp) bool {
		var want int64
		for _, op := range ops {
			want += int64(op.N)
		}
		return applyOps(ops).Size() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagSplitBatchesEquivalentQuick(t *testing.T) {
	// Merging a sequence of deltas in one batch or in two batches at any
	// cut point gives the same bag — the property that lets the change
	// log drain at arbitrary sample boundaries.
	f := func(ops []bagOp, cutRaw uint8) bool {
		whole := applyOps(ops)
		if len(ops) == 0 {
			return whole.Len() == 0
		}
		cut := int(cutRaw) % (len(ops) + 1)
		first := applyOps(ops[:cut])
		second := applyOps(ops[cut:])
		merged := NewBag(whole.Schema)
		first.Each(func(k string, row *BagRow) bool {
			merged.AddKeyed(k, row.Tuple, row.N)
			return true
		})
		second.Each(func(k string, row *BagRow) bool {
			merged.AddKeyed(k, row.Tuple, row.N)
			return true
		})
		return merged.Equal(whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
