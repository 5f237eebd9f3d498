package relstore

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func tokenSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("TOKEN",
		Column{"TOK_ID", TInt},
		Column{"DOC_ID", TInt},
		Column{"STRING", TString},
		Column{"LABEL", TString},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Type
		str  string
	}{
		{Int(42), TInt, "42"},
		{Float(2.5), TFloat, "2.5"},
		{String("abc"), TString, "abc"},
		{Bool(true), TBool, "true"},
		{Bool(false), TBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: Kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestValueEqualNumericCrossType(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("Int(1) should not equal Bool(true)")
	}
	if String("1").Equal(Int(1)) {
		t.Error("String should not equal Int")
	}
}

func TestValueLess(t *testing.T) {
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Error("int order broken")
	}
	if !Int(1).Less(Float(1.5)) {
		t.Error("cross numeric order broken")
	}
	if !String("a").Less(String("b")) {
		t.Error("string order broken")
	}
}

func TestValueKeyInjective(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(256),
		Float(0), Float(1), Float(0.5),
		String(""), String("a"), String("ab"), String("a:b"),
		Bool(true), Bool(false),
	}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestTupleKeyInjectiveQuick(t *testing.T) {
	// Two random string pairs collide in concatenation iff the pairs are
	// equal; the length-prefixed encoding must keep them distinct.
	f := func(a1, a2, b1, b2 string) bool {
		ta := Tuple{String(a1), String(a2)}
		tb := Tuple{String(b1), String(b2)}
		if a1 == b1 && a2 == b2 {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareKeyMatchesKeyOrder checks CompareKey against the order it
// stands in for, bytes.Compare over the two keys: mixed kinds, negative
// integers (whose keys sort after the positive ones), ±0 and NaN floats,
// and strings past the one-byte length prefix (128 and 256 share their
// first length byte).
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strs := []string{"", "a", "ab", "b", strings.Repeat("x", 127), strings.Repeat("x", 128), strings.Repeat("a", 129), strings.Repeat("b", 256), strings.Repeat("z", 300)}
	floats := []float64{0, math.Copysign(0, -1), -1.5, 2.25, math.Inf(1), math.NaN()}
	value := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(rng.Int63n(7) - 3)
		case 1:
			return Float(floats[rng.Intn(len(floats))])
		case 2:
			return String(strs[rng.Intn(len(strs))])
		}
		return Bool(rng.Intn(2) == 0)
	}
	for i := 0; i < 20000; i++ {
		a, b := make(Tuple, rng.Intn(3)), make(Tuple, rng.Intn(3))
		for j := range a {
			a[j] = value()
		}
		for j := range b {
			b[j] = value()
			if j < len(a) && rng.Intn(2) == 0 {
				b[j] = a[j]
			}
		}
		if got, want := a.CompareKey(b), bytes.Compare([]byte(a.Key()), []byte(b.Key())); got != want {
			t.Fatalf("CompareKey(%v, %v) = %d, key order %d", a, b, got, want)
		}
	}
	x, y := Tuple{String(strs[5]), Int(-1)}, Tuple{String(strs[6]), Int(1)}
	if n := testing.AllocsPerRun(10, func() { x.CompareKey(y) }); n != 0 {
		t.Errorf("CompareKey allocates %v times", n)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := tokenSchema(t)
	good := Tuple{Int(1), Int(1), String("IBM"), String("B-ORG")}
	if err := s.Validate(good); err != nil {
		t.Errorf("Validate(good): %v", err)
	}
	bad := Tuple{Int(1), Int(1), String("IBM")}
	if err := s.Validate(bad); err == nil {
		t.Error("Validate(short tuple): want error")
	}
	wrongType := Tuple{Int(1), String("x"), String("IBM"), String("B-ORG")}
	if err := s.Validate(wrongType); err == nil {
		t.Error("Validate(wrong type): want error")
	}
}

func TestSchemaIntWhereFloatExpected(t *testing.T) {
	s := MustSchema("R", Column{"x", TFloat})
	if err := s.Validate(Tuple{Int(3)}); err != nil {
		t.Errorf("int should satisfy float column: %v", err)
	}
}

func TestSchemaDuplicateColumn(t *testing.T) {
	if _, err := NewSchema("R", Column{"a", TInt}, Column{"a", TInt}); err == nil {
		t.Error("duplicate column: want error")
	}
	if _, err := NewSchema("R", Column{"", TInt}); err == nil {
		t.Error("empty column name: want error")
	}
}

func TestRelationCRUD(t *testing.T) {
	r := NewRelation(tokenSchema(t))
	id, err := r.Insert(Tuple{Int(1), Int(1), String("IBM"), String("O")})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	got, ok := r.Get(id)
	if !ok || got[2].AsString() != "IBM" {
		t.Fatalf("Get = %v, %v", got, ok)
	}

	if err := r.SetCol(id, 3, String("B-ORG")); err != nil {
		t.Fatalf("SetCol: %v", err)
	}
	if got[3].AsString() != "O" {
		t.Errorf("a tuple from Get changed under a later write: label = %q", got[3].AsString())
	}
	if v, ok := r.GetCol(id, 3); !ok || v.AsString() != "B-ORG" {
		t.Errorf("GetCol = %v, %v, want B-ORG", v, ok)
	}
	if err := errors.Join(r.SetCol(id, 0, Int(2)), r.SetCol(id, 2, String("Intel"))); err != nil {
		t.Fatalf("SetCol: %v", err)
	}
	if got, _ = r.Get(id); !got.Identical(Tuple{Int(2), Int(1), String("Intel"), String("B-ORG")}) {
		t.Errorf("after SetCol of columns 0 and 2: %v", got)
	}

	if err := r.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	if _, ok := r.Get(id); ok {
		t.Error("Get of a deleted row succeeded")
	}
	if _, ok := r.GetCol(id, 0); ok {
		t.Error("GetCol of a deleted row succeeded")
	}
	for name, err := range map[string]error{
		"Delete": r.Delete(id), "SetCol": r.SetCol(id, 3, String("O")),
		"SetCol of a row never inserted": r.SetCol(7, 3, String("O")), "Delete of a negative id": r.Delete(-1),
	} {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("%s on a missing row = %v, want ErrNotFound", name, err)
		}
	}
	// The id of a deleted row is not handed out again.
	if nid, _ := r.Insert(got); nid == id {
		t.Error("Insert reused the id of a deleted row")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(tokenSchema(t))
	tup := Tuple{Int(1), Int(1), String("IBM"), String("O")}
	id, _ := r.Insert(tup)
	tup[3] = String("MUTATED")
	got, _ := r.Get(id)
	if got[3].AsString() != "O" {
		t.Error("Insert must store a copy, not alias caller's tuple")
	}
}

// TestFloatColumnKeepsIntKind: a FLOAT column takes integers, and they
// come back as integers — Int(1) and Float(1) key differently, so the
// store may not fold one into the other.
func TestFloatColumnKeepsIntKind(t *testing.T) {
	r := NewRelation(MustSchema("M", Column{"X", TFloat}))
	vals := []Value{Int(1), Float(1), Float(math.Copysign(0, -1)), Int(math.MaxInt64), Float(math.Inf(1)), Float(2.5)}
	for _, v := range vals {
		if _, err := r.Insert(Tuple{v}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vals {
		if got, _ := r.GetCol(RowID(i), 0); !(Tuple{got}).Identical(Tuple{v}) {
			t.Errorf("row %d: stored %#v, read %#v", i, v, got)
		}
	}
	r.SetCol(0, 0, Float(1))
	r.SetCol(1, 0, Int(1))
	if a, _ := r.GetCol(0, 0); a.Kind() != TFloat {
		t.Errorf("Int(1) overwritten with Float(1) reads back as %v", a.Kind())
	}
	if b, _ := r.GetCol(1, 0); b.Kind() != TInt {
		t.Errorf("Float(1) overwritten with Int(1) reads back as %v", b.Kind())
	}
}

// TestScanWhereMatchesEqual: the equality ScanWhere tests on the column
// vector accepts exactly the rows Value.Equal does, for every column type
// and for constants of the column's own and of a comparable kind.
func TestScanWhereMatchesEqual(t *testing.T) {
	r := NewRelation(MustSchema("MIX",
		Column{"I", TInt}, Column{"F", TFloat}, Column{"S", TString}, Column{"B", TBool}))
	rng := rand.New(rand.NewSource(5))
	num := func() Value {
		if rng.Intn(2) == 0 {
			return Int(int64(rng.Intn(3)))
		}
		return Float(float64(rng.Intn(6)) / 2)
	}
	for i := 0; i < 200; i++ {
		if _, err := r.Insert(Tuple{Int(int64(rng.Intn(3))), num(), String([]string{"a", "b", ""}[rng.Intn(3)]), Bool(rng.Intn(2) == 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for id := RowID(0); id < 200; id += 9 {
		r.Delete(id)
	}
	consts := []Value{Int(0), Int(2), Float(1), Float(0.5), String("a"), String(""), Bool(true), Bool(false)}
	odd := func(t Tuple) bool { return t[0].AsInt()%2 == 1 }
	for col := range r.Schema().Cols {
		for _, k := range consts {
			for _, keep := range []func(Tuple) bool{nil, odd} {
				var want, got []RowID
				r.Scan(func(id RowID, t Tuple) bool {
					if t[col].Equal(k) && (keep == nil || keep(t)) {
						want = append(want, id)
					}
					return true
				})
				r.ScanWhere(col, k, keep, func(id RowID, t Tuple) bool {
					if !t[col].Equal(k) {
						panic("ScanWhere handed out a row that fails its equality")
					}
					got = append(got, id)
					return true
				})
				if !slices.Equal(got, want) {
					t.Errorf("column %d = %v (keep %v): ScanWhere %v, Scan+Equal %v", col, k, keep != nil, got, want)
				}
			}
		}
	}
}

// TestScanOrderAndScratch: scans run in ascending RowID order over the
// live rows, and the tuple they hand out is scratch — refilled per row,
// zeroed once the scan is over.
func TestScanOrderAndScratch(t *testing.T) {
	r := NewRelation(tokenSchema(t))
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{Int(int64(i)), Int(0), String("w"), String("O")})
	}
	r.Delete(0)
	r.Delete(17)
	r.Delete(49)
	var prev RowID = -1
	var kept []Tuple
	n := 0
	r.Scan(func(id RowID, tu Tuple) bool {
		if id <= prev {
			t.Fatalf("Scan out of order: %d after %d", id, prev)
		}
		if tu[0].AsInt() != int64(id) {
			t.Fatalf("row %d carries TOK_ID %d", id, tu[0].AsInt())
		}
		prev = id
		kept = append(kept, tu)
		n++
		return true
	})
	if n != 47 || n != r.Len() {
		t.Errorf("Scan visited %d rows, Len %d, want 47", n, r.Len())
	}
	for _, tu := range kept {
		if !tu.Identical(Tuple{Int(0), Int(0), Int(0), Int(0)}) {
			t.Fatalf("a tuple kept past the scan still reads %v", tu)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	r := NewRelation(tokenSchema(t))
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Int(int64(i)), Int(0), String("w"), String("O")})
	}
	n := 0
	r.Scan(func(RowID, Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Scan visited %d rows after early stop, want 3", n)
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	db.MustCreate(MustSchema("B", Column{"x", TInt}))
	db.MustCreate(MustSchema("A", Column{"x", TInt}))
	if _, err := db.Create(MustSchema("A", Column{"x", TInt})); err == nil {
		t.Error("duplicate relation: want error")
	}
	if _, err := db.Relation("missing"); err == nil {
		t.Error("missing relation: want error")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
	if _, err := db.Create(nil); err == nil {
		t.Error("nil schema: want error")
	}
}

func TestSetColValidation(t *testing.T) {
	r := NewRelation(tokenSchema(t))
	id, _ := r.Insert(Tuple{Int(1), Int(1), String("IBM"), String("O")})
	if err := r.SetCol(id, 3, Int(5)); err == nil {
		t.Error("type-violating SetCol: want error")
	}
	if err := r.SetCol(id, 99, String("x")); err == nil {
		t.Error("out-of-range column: want error")
	}
	got, _ := r.Get(id)
	if got[3].AsString() != "O" {
		t.Error("failed update must not mutate row")
	}
}

// TestEvidenceGeneration pins what moves a relation's evidence count:
// an Insert, a Delete and a SetCol of an evidence column do, a SetCol
// of a declared hidden column (a sampler's flip) and a failed write do
// not, and a clone starts from its original's count and moves on its
// own.
func TestEvidenceGeneration(t *testing.T) {
	db := NewDB()
	r := db.MustCreate(tokenSchema(t))
	if err := db.DeclareHidden("TOKEN", 3); err != nil {
		t.Fatal(err)
	}
	step := func(what string, moves bool, write func() error) {
		t.Helper()
		before := r.EvidenceGen()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := r.EvidenceGen() != before; got != moves {
			t.Errorf("%s moved the evidence count: %v, want %v", what, got, moves)
		}
	}
	var id RowID
	step("Insert", true, func() (err error) { id, err = r.Insert(Tuple{Int(1), Int(1), String("IBM"), String("O")}); return err })
	step("SetCol of a hidden column", false, func() error { return r.SetCol(id, 3, String("B-ORG")) })
	step("SetCol of an evidence column", true, func() error { return r.SetCol(id, 2, String("Boston")) })
	step("a failed SetCol", false, func() error {
		if r.SetCol(id, 2, Int(5)) == nil {
			t.Error("type-violating SetCol: want error")
		}
		return nil
	})
	c := r.Clone()
	if c.EvidenceGen() != r.EvidenceGen() {
		t.Fatalf("clone's evidence count %d, original's %d", c.EvidenceGen(), r.EvidenceGen())
	}
	step("Delete", true, func() error { return r.Delete(id) })
	if c.EvidenceGen() == r.EvidenceGen() {
		t.Error("a Delete in the original moved the clone's evidence count")
	}
	if err := c.SetCol(id, 1, Int(2)); err != nil {
		t.Fatal(err)
	}
	if c.EvidenceGen() != r.EvidenceGen() {
		t.Errorf("clone's count %d after one write of its own, original's %d", c.EvidenceGen(), r.EvidenceGen())
	}
}
