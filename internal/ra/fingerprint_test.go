package ra

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// fmtFP is the bfp1 node encoding as it was first written, through fmt
// into an io.Writer. appendFP must reproduce it byte for byte: every
// persisted "bfp1:" fingerprint was computed from these bytes.
func fmtFP(w io.Writer, b *Bound) {
	fmt.Fprintf(w, "n%d(", b.Kind)
	switch b.Kind {
	case KScan:
		io.WriteString(w, b.Table)
	case KSelect:
		fmtBExprFP(w, b.Pred)
	case KProject:
		fmt.Fprintf(w, "%v", b.ProjIdx)
	case KJoin:
		fmt.Fprintf(w, "%v|%v|", b.LeftKey, b.RightKey)
		if b.Filter != nil {
			fmtBExprFP(w, b.Filter)
		}
	case KGroupAgg:
		fmt.Fprintf(w, "%v|", b.GroupIdx)
		for _, a := range b.Aggs {
			fmt.Fprintf(w, "a%d,%d,%d(", a.Fn, a.ArgIdx, a.Out)
			if a.Pred != nil {
				fmtBExprFP(w, a.Pred)
			}
			io.WriteString(w, ")")
		}
	case KOrderLimit:
		fmt.Fprintf(w, "%v|%v|%d", b.SortIdx, b.SortDesc, b.Limit)
	}
	io.WriteString(w, ")")
	for _, c := range b.Children {
		io.WriteString(w, c.Fingerprint())
	}
}

func fmtBExprFP(w io.Writer, e BExpr) {
	switch x := e.(type) {
	case boundCol:
		fmt.Fprintf(w, "c%d", x.idx)
	case boundConst:
		io.WriteString(w, "k")
		w.Write(appendValueFP(nil, x.v))
	case boundCmp:
		fmt.Fprintf(w, "(%d ", x.op)
		fmtBExprFP(w, x.l)
		io.WriteString(w, " ")
		fmtBExprFP(w, x.r)
		io.WriteString(w, ")")
	case boundAnd:
		io.WriteString(w, "&(")
		for _, t := range x.terms {
			fmtBExprFP(w, t)
			io.WriteString(w, " ")
		}
		io.WriteString(w, ")")
	case boundOr:
		io.WriteString(w, "|(")
		for _, t := range x.terms {
			fmtBExprFP(w, t)
			io.WriteString(w, " ")
		}
		io.WriteString(w, ")")
	}
}

// TestBoundFingerprintEncodingIsFrozen holds every node of plans that use
// every node kind, expression form and literal type to the fmt-written
// encoding, and its fingerprint to that encoding's hash.
func TestBoundFingerprintEncodingIsFrozen(t *testing.T) {
	db := canonDB(t)
	label := func(alias, v string) Expr { return Eq(Col(C(alias, "LABEL")), Const(relstore.String(v))) }
	tok := func(alias string) Plan { return NewScan("TOKEN", alias) }
	join := NewJoin(
		NewSelect(tok("A"), Or(label("A", "B-PER"), label("A", "B-LOC"))),
		NewSelect(tok("B"), And(label("B", "B-ORG"), Cmp(OpGt, Col(C("B", "TOK_ID")), Const(relstore.Int(-3))))),
		[]EquiCond{{Left: C("A", "DOC_ID"), Right: C("B", "DOC_ID")}},
		Cmp(OpLt, Col(C("A", "TOK_ID")), Col(C("B", "TOK_ID"))))
	plans := []Plan{
		NewProject(join, C("A", "STRING"), C("B", "TOK_ID")),
		NewGroupAgg(join, []ColRef{C("A", "DOC_ID"), C("B", "STRING")},
			Agg{Fn: FnCount, As: "N"},
			Agg{Fn: FnCountIf, Pred: Cmp(OpGe, Col(C("B", "TOK_ID")), Const(relstore.Float(2.5))), As: "NC"},
			Agg{Fn: FnSum, Arg: C("B", "TOK_ID"), As: "S"},
			Agg{Fn: FnMin, Arg: C("A", "STRING"), As: "LO"}),
		NewGroupAgg(NewSelect(tok("T"), Cmp(OpEq, label("T", "O"), Const(relstore.Bool(true)))), nil,
			Agg{Fn: FnAvg, Arg: C("T", "TOK_ID"), As: "A"}),
		NewOrderLimit(NewProject(tok("T"), C("T", "STRING"), C("T", "TOK_ID")),
			[]SortKey{{Col: C("T", "STRING")}, {Col: C("T", "TOK_ID"), Desc: true}}, 7),
		NewDistinct(NewProject(tok("T"), C("T", "DOC_ID"))),
	}
	kinds := map[BoundKind]bool{}
	for _, p := range plans {
		b, err := Bind(db, p)
		if err != nil {
			t.Fatalf("Bind(%s): %v", p, err)
		}
		var walk func(*Bound)
		walk = func(n *Bound) {
			fp := n.Fingerprint()
			kinds[n.Kind] = true
			var want strings.Builder
			fmtFP(&want, n)
			if got := string(n.appendFP(nil)); got != want.String() {
				t.Errorf("node %d encodes as\n %q\nwant\n %q", n.Kind, got, want.String())
			}
			sum := sha256.Sum256([]byte(want.String()))
			if wantFP := "bfp1:" + hex.EncodeToString(sum[:16]); fp != wantFP {
				t.Errorf("node %d fingerprints as %s, want %s", n.Kind, fp, wantFP)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(b)
	}
	for _, k := range []BoundKind{KScan, KSelect, KProject, KJoin, KGroupAgg, KDistinct, KOrderLimit} {
		if !kinds[k] {
			t.Errorf("no plan has a node of kind %d", k)
		}
	}
}
