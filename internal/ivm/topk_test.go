package ivm

import (
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// TestViewOrderLimit checks the incrementally maintained per-world top-k
// against full re-evaluation under random label flips — the oracle that
// covers entry, exit, and re-entry of tuples as the bounded buffer
// churns.
func TestViewOrderLimit(t *testing.T) {
	p := ra.NewOrderLimit(
		ra.NewProject(perSelect(), ra.C("T", "STRING")),
		[]ra.SortKey{{Col: ra.C("T", "STRING")}}, 3)
	checkAgainstFullEval(t, p, 11, 64, 25, 5)
}

// TestViewOrderLimitDescMultiKey adds a descending primary key, a
// secondary key, and a limit that clips inside multiplicities.
func TestViewOrderLimitDescMultiKey(t *testing.T) {
	p := ra.NewOrderLimit(
		ra.NewProject(ra.NewScan("TOKEN", "T"), ra.C("T", "LABEL"), ra.C("T", "STRING")),
		[]ra.SortKey{{Col: ra.C("T", "LABEL"), Desc: true}, {Col: ra.C("T", "STRING")}}, 7)
	checkAgainstFullEval(t, p, 12, 48, 20, 4)
}

// TestViewOrderLimitOverGroupAgg maintains a ranked aggregate — the
// "top 2 documents by token count" shape — where deltas arrive as
// −old/+new group rows rather than base tuples.
func TestViewOrderLimitOverGroupAgg(t *testing.T) {
	counts := ra.NewGroupAgg(
		ra.NewScan("TOKEN", "T"),
		[]ra.ColRef{ra.C("T", "DOC_ID")},
		ra.Agg{Fn: ra.FnCountIf,
			Pred: ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))), As: "NPER"},
	)
	p := ra.NewOrderLimit(counts,
		[]ra.SortKey{{Col: ra.C("", "NPER"), Desc: true}, {Col: ra.C("T", "DOC_ID")}}, 2)
	checkAgainstFullEval(t, p, 13, 64, 25, 4)
}

// TestOrderLimitEntryExit drives the operator with hand-built deltas and
// asserts the exact entry/exit behavior of the bounded buffer: deleting
// a top-k row promotes its successor, and re-inserting demotes it again.
func TestOrderLimitEntryExit(t *testing.T) {
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
	))
	for i, s := range []string{"ada", "bob", "cyd", "dee"} {
		if _, err := tok.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String(s)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := ra.NewOrderLimit(
		ra.NewProject(ra.NewScan("TOKEN", "T"), ra.C("T", "STRING")),
		[]ra.SortKey{{Col: ra.C("T", "STRING")}}, 2)
	bound, err := ra.Bind(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	has := func(want ...string) {
		t.Helper()
		res := resultBag(view)
		if int(res.Size()) != len(want) {
			t.Fatalf("size = %d, want %d (%v)", res.Size(), len(want), want)
		}
		for _, s := range want {
			if res.Count(relstore.Tuple{relstore.String(s)}.Key()) < 1 {
				t.Fatalf("missing %q in view result", s)
			}
		}
	}
	has("ada", "bob")

	// The deltas below never touch the stored relation: scan state is
	// only read at init, and the operator tree maintains itself purely
	// from the signed base deltas.
	del := func(s string, n int64) BaseDelta {
		d := NewBaseDelta()
		d.Add("TOKEN", relstore.Tuple{relstore.Int(99), relstore.String(s)}, n)
		return d
	}

	// "ada" leaves: "cyd" enters the top 2. The emitted delta must be
	// exactly −ada +cyd.
	diff := applyDiff(view, del("ada", -1))
	has("bob", "cyd")
	if diff.Count(relstore.Tuple{relstore.String("ada")}.Key()) != -1 ||
		diff.Count(relstore.Tuple{relstore.String("cyd")}.Key()) != 1 || diff.Len() != 2 {
		t.Fatalf("exit delta = %v", diff.Rows())
	}

	// "ada" returns: "cyd" falls back out.
	diff = applyDiff(view, del("ada", 1))
	has("ada", "bob")
	if diff.Count(relstore.Tuple{relstore.String("cyd")}.Key()) != -1 ||
		diff.Count(relstore.Tuple{relstore.String("ada")}.Key()) != 1 || diff.Len() != 2 {
		t.Fatalf("re-entry delta = %v", diff.Rows())
	}

	// A no-op delta far below the boundary emits nothing.
	diff = applyDiff(view, del("zzz", 1))
	has("ada", "bob")
	if diff.Len() != 0 {
		t.Fatalf("below-boundary delta = %v, want empty", diff.Rows())
	}

	// Duplicate copies count toward the limit: a second "ada" evicts
	// "bob" entirely.
	diff = applyDiff(view, del("ada", 1))
	res := resultBag(view)
	if res.Count(relstore.Tuple{relstore.String("ada")}.Key()) != 2 || res.Size() != 2 {
		t.Fatalf("multiset clip = %v", res.Rows())
	}
	if diff.Count(relstore.Tuple{relstore.String("bob")}.Key()) != -1 {
		t.Fatalf("duplicate-entry delta = %v", diff.Rows())
	}
}
