package relstore

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// The rules of Slots hold for every column, so each test below is written
// once, over a vecKind, and run once for a STRING column (the TestCodes
// tests, whose vector holds codes) and once for an INT column (the
// TestNums tests, whose vector holds values). vecRel's rows hold the same
// x in both columns: K holds Int(x), and S the string "s<x>", coded x,
// since the strings are interned in order of x.

// vecKind is a column whose vector the tests exercise, and the values
// that widen it.
type vecKind struct {
	col                int         // the column of vecRel
	widths             []widthCase // values and the widths they widen a 1 B vector to
	mid, top           int64       // wide values, mid < top
	midWidth, topWidth int         // the widths of a 1 B vector storing them
}

// widthCase is a value and the width of a 1 B vector once it stores it.
type widthCase struct {
	x     int64
	width int
}

var codesKind = vecKind{
	col:    1,
	widths: []widthCase{{255, 1}, {256, 2}, {1 << 16, 4}},
	mid:    256, top: 1 << 16, midWidth: 2, topWidth: 4,
}

var numsKind = vecKind{
	col: 0,
	widths: []widthCase{
		{255, 1}, {256, 2}, {1<<16 - 1, 2}, {1 << 16, 4}, {1<<32 - 1, 4}, {1 << 32, 8},
		{math.MaxInt64, 8}, {-1, 8}, {math.MinInt64, 8},
	},
	mid: 1 << 20, top: 1 << 40, midWidth: 4, topWidth: 8,
}

// vecRel returns a relation (K INT, S STRING) whose row i holds
// x = i % distinct in both columns.
func vecRel(t *testing.T, rows, distinct int) *Relation {
	t.Helper()
	rel := NewDB().MustCreate(MustSchema("W", Column{"K", TInt}, Column{"S", TString}))
	for i := range rows {
		x := int64(i % distinct)
		if _, err := rel.Insert(Tuple{Int(x), String("s" + strconv.FormatInt(x, 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// val returns the value column k.col of rel holds as x: Int(x) in K, and
// in S the string "s<x>". A dictionary that has issued n codes is given
// "s<n>" … "s<x>" first, so in one holding only "s0", "s1", … in order
// the code of "s<x>" is x.
func (k vecKind) val(rel *Relation, x int64) Value {
	if k.col == 0 {
		return Int(x)
	}
	var strs []string
	for y := int64(len(rel.cols[1].dict.strs())); y <= x; y++ {
		strs = append(strs, "s"+strconv.FormatInt(y, 10))
	}
	if err := rel.Intern(1, strs...); err != nil {
		panic(err)
	}
	return String("s" + strconv.FormatInt(x, 10))
}

// row returns a tuple of vecRel holding x in column k.col and 0 in the
// other.
func (k vecKind) row(rel *Relation, x int64) Tuple {
	t := Tuple{Int(0), String("s0")}
	t[k.col] = k.val(rel, x)
	return t
}

// xOf returns the x a value of vecRel stands for.
func xOf(v Value) int64 {
	if v.Kind() == TString {
		x, _ := strconv.ParseInt(v.AsString()[1:], 10, 64)
		return x
	}
	return v.AsInt()
}

// xsOf reads column k.col of every row as x: by GetCol, by a scan and, in
// S, by CodeAt. It reports where those reads disagree.
func (k vecKind) xsOf(rel *Relation) (xs []int64, bad string) {
	var scanned []int64
	for id := range rel.NextID() {
		v, _ := rel.GetCol(id, k.col)
		if k.col == 1 && int64(rel.CodeAt(id, 1)) != xOf(v) {
			return nil, fmt.Sprintf("row %d reads %v under code %d", id, v, rel.CodeAt(id, 1))
		}
		xs = append(xs, xOf(v))
	}
	rel.Scan(func(_ RowID, tu Tuple) bool {
		scanned = append(scanned, xOf(tu[k.col]))
		return true
	})
	if !slices.Equal(xs, scanned) {
		return nil, "GetCol and a scan disagree"
	}
	return xs, ""
}

// mustXs is xsOf, failing the test when the reads disagree.
func (k vecKind) mustXs(t *testing.T, rel *Relation) []int64 {
	t.Helper()
	xs, bad := k.xsOf(rel)
	if bad != "" {
		t.Fatal(bad)
	}
	return xs
}

// width returns the bytes per slot of v.
func (v *Slots) width() int { return 1 << v.lg }

// widthOf returns the bytes per slot of column col of rel.
func widthOf(rel *Relation, col int) int { return rel.cols[col].vec.width() }

// codesOf copies a vector of any width into a []int64.
func codesOf(v Slots) []int64 {
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

func TestCodesWiden(t *testing.T) { testWiden(t, codesKind) }
func TestNumsWiden(t *testing.T)  { testWiden(t, numsKind) }

// testWiden: a column whose 256 values (256 strings, codes 0–255) all fit
// a byte is 1 B per slot and reads every row back. Storing a value, by
// Insert or by SetCol, widens it to the narrowest of 2, 4 and 8 B that
// holds the value, and only when it does not fit; every earlier row reads
// back what it held, and storing a small value again does not narrow it.
func testWiden(t *testing.T, k vecKind) {
	for _, how := range []string{"insert", "setcol"} {
		t.Run(how, func(t *testing.T) {
			for _, tc := range k.widths {
				t.Run(strconv.FormatInt(tc.x, 10), func(t *testing.T) {
					rel := vecRel(t, 600, 256)
					if w := widthOf(rel, k.col); w != 1 {
						t.Fatalf("256 values: %d B per slot, want 1", w)
					}
					want := k.mustXs(t, rel)
					for i, x := range want {
						if x != int64(i%256) {
							t.Fatalf("row %d reads %d, want %d", i, x, i%256)
						}
					}
					if how == "insert" {
						if _, err := rel.Insert(k.row(rel, tc.x)); err != nil {
							t.Fatal(err)
						}
						want = append(want, tc.x)
					} else {
						if err := rel.SetCol(599, k.col, k.val(rel, tc.x)); err != nil {
							t.Fatal(err)
						}
						want[599] = tc.x
					}
					if w := widthOf(rel, k.col); w != tc.width {
						t.Fatalf("after storing %d: %d B per slot, want %d", tc.x, w, tc.width)
					}
					if got := k.mustXs(t, rel); !slices.Equal(got, want) {
						t.Fatalf("after storing %d the rows read %v, want %v", tc.x, got, want)
					}
					if err := rel.SetCol(599, k.col, k.val(rel, 3)); err != nil {
						t.Fatal(err)
					}
					if w := widthOf(rel, k.col); w != tc.width {
						t.Errorf("after storing a small value again: %d B per slot, want %d", w, tc.width)
					}
				})
			}
		})
	}
}

func TestCodesCloneWidensAlone(t *testing.T) { testCloneWidensAlone(t, codesKind) }
func TestNumsCloneWidensAlone(t *testing.T)  { testCloneWidensAlone(t, numsKind) }

// testCloneWidensAlone: after a Clone, one world widens its column twice
// while another goroutine reads the other world's narrow vector, which
// they shared, by GetCol, CodeAt, a scan and ScanWhere; the reader sees
// what it saw before. A copy on write of a narrow vector is narrow when
// the value fits, and made at the value's width, in one allocation, when
// it does not: a STRING copy is sized for the code the store issues.
func testCloneWidensAlone(t *testing.T, k vecKind) {
	a := vecRel(t, 2000, 200)
	b := a.Clone()
	want := k.mustXs(t, a)
	seven := k.val(a, 7)
	mids := make([]Value, 500)
	for i := range mids {
		mids[i] = k.val(b, k.mid+int64(i))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, v := range mids {
			if err := b.SetCol(RowID(i), k.col, v); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := b.Insert(k.row(b, k.top)); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			got, bad := k.xsOf(a)
			n := 0
			a.ScanWhere(k.col, seven, nil, func(RowID, Tuple) bool { n++; return true })
			if bad != "" || !slices.Equal(got, want) || n != 10 {
				t.Errorf("the clone's writes changed the world it was cloned from (%s; %d rows hold 7)", bad, n)
				return
			}
		}
	}()
	wg.Wait()
	if wa, wb := widthOf(a, k.col), widthOf(b, k.col); wa != 1 || wb != k.topWidth {
		t.Fatalf("widths %d and %d B per slot, want 1 in the untouched world and %d in the writer", wa, wb, k.topWidth)
	}
	if v, _ := b.GetCol(499, k.col); xOf(v) != k.mid+499 {
		t.Errorf("the writer's row 499 reads %v", v)
	}

	c := a.Clone()
	if err := c.SetCol(3, k.col, k.val(c, 9)); err != nil {
		t.Fatal(err)
	}
	if c.cols[k.col] == a.cols[k.col] || widthOf(c, k.col) != 1 {
		t.Errorf("a fitting SetCol on a clone: shared %v, %d B per slot; want a private 1 B copy",
			c.cols[k.col] == a.cols[k.col], widthOf(c, k.col))
	}
	if _, err := c.Insert(k.row(c, 9)); err != nil || widthOf(c, k.col) != 1 {
		t.Errorf("an Insert of a fitting value: %d B per slot (err %v), want 1", widthOf(c, k.col), err)
	}
	d := a.Clone()
	v := k.val(d, k.mid)
	n, size := measure(func() { d.SetCol(3, k.col, v) })
	if limit := k.midWidth*2000 + 512; widthOf(d, k.col) != k.midWidth || n != 2 || size > float64(limit) {
		t.Errorf("a widening SetCol on a clone: %d B per slot, %v allocations, %v bytes; want %d, 2 (header and vector), ≤ %d",
			widthOf(d, k.col), n, size, k.midWidth, limit)
	}
}

func TestCodesReadDBWidth(t *testing.T) {
	testReadDBWidth(t, codesKind, []int64{0, 255, 256})
}

func TestNumsReadDBWidth(t *testing.T) {
	testReadDBWidth(t, numsKind, []int64{0, 255, 256, 1<<16 - 1, 1 << 16, 1<<32 - 1, 1 << 32, -1})
}

// testReadDBWidth: a snapshot's column decodes at the narrowest width
// that holds its live values, whatever width the dumped world held it at,
// and reads back the same rows; a BOOL column decodes at 1 B. The largest
// live value is top. A STRING snapshot renumbers its codes from 0 in
// order of first use, so there every value up to top is live. A deleted
// row's value does not count: the last row would need 8 B, or one more
// STRING code.
func testReadDBWidth(t *testing.T, k vecKind, tops []int64) {
	for _, top := range tops {
		db := NewDB()
		rel := db.MustCreate(MustSchema("W", Column{"K", TInt}, Column{"S", TString}, Column{"OK", TBool}))
		m := int64(200)
		if k.col == 1 {
			m = top + 1
		}
		xs := make([]int64, max(1000, m))
		for i := range xs {
			xs[i] = int64(i) % m
		}
		var id RowID
		for i, x := range append(xs, top, math.MinInt64) {
			id, _ = rel.Insert(Tuple{Int(x), String("s" + strconv.FormatInt(x, 10)), Bool(i%3 == 0)})
		}
		rel.Delete(id)
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDB(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := back.Relation("W")
		if w, want := widthOf(got, k.col), 1<<lgOf(top); w != want {
			t.Errorf("largest live value %d decodes at %d B per slot, want %d", top, w, want)
		}
		if w := widthOf(got, 2); w != 1 {
			t.Errorf("a BOOL column decodes at %d B per slot, want 1", w)
		}
		for id := range rel.NextID() {
			a, okA := rel.Get(id)
			b, okB := got.Get(id)
			if okA != okB || (okA && !a.Identical(b)) {
				t.Fatalf("largest value %d: row %d reads %v (%v), was %v (%v)", top, id, b, okB, a, okA)
			}
		}
	}
}

func TestCodesDumpIgnoresWidth(t *testing.T) { testDumpIgnoresWidth(t, codesKind) }
func TestNumsDumpIgnoresWidth(t *testing.T)  { testDumpIgnoresWidth(t, numsKind) }

// testDumpIgnoresWidth: the same rows held narrow and held widened dump
// to identical bytes, since a snapshot writes every number as 8 bytes and
// every code as 4 bytes of its own first-use numbering.
func testDumpIgnoresWidth(t *testing.T, k vecKind) {
	dump := func(db *DB) []byte {
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	world := func() (*DB, *Relation) {
		db := NewDB()
		rel := db.MustCreate(MustSchema("W", Column{"K", TInt}, Column{"S", TString}))
		for i := range 300 {
			rel.Insert(Tuple{Int(int64(i % 50)), String("s" + strconv.Itoa(i%50))})
		}
		return db, rel
	}
	narrowDB, narrow := world()
	wideDB, wide := world()
	// Widen, then put the row back as it was.
	old, _ := wide.GetCol(7, k.col)
	if err := wide.SetCol(7, k.col, k.val(wide, k.mid)); err != nil {
		t.Fatal(err)
	}
	if err := wide.SetCol(7, k.col, old); err != nil {
		t.Fatal(err)
	}
	if widthOf(narrow, k.col) != 1 || widthOf(wide, k.col) != k.midWidth {
		t.Fatalf("widths %d and %d, want 1 and %d", widthOf(narrow, k.col), widthOf(wide, k.col), k.midWidth)
	}
	if !bytes.Equal(dump(narrowDB), dump(wideDB)) {
		t.Error("the same rows dump differently held narrow and held wide")
	}
}

func TestCodesScanWhereWidths(t *testing.T) {
	testScanWhereWidths(t, codesKind, []int64{255, 256, 1 << 16}, func(rel *Relation, top int64) []Value {
		return []Value{
			codesKind.val(rel, 0), codesKind.val(rel, 2), codesKind.val(rel, top), codesKind.val(rel, top-1),
			String("never stored"), Int(2), Bool(true),
		}
	})
}

func TestNumsScanWhereWidths(t *testing.T) {
	testScanWhereWidths(t, numsKind, []int64{255, 1<<16 - 1, 1<<32 - 1, 1 << 40}, func(_ *Relation, top int64) []Value {
		return []Value{
			Int(0), Int(2), Int(top), Int(-1), Int(top + 1), Int(256), Int(1 << 16), Int(1 << 32),
			Int(math.MinInt64), Float(2), Float(2.5), String("2"), Bool(true),
		}
	})
}

// testScanWhereWidths: ScanWhere's column = c, compared at the vector's
// width (a STRING constant as its code), selects the rows a scan filtered
// by Value.Equal selects, at every width. A constant the width cannot
// hold selects nothing: a number out of range, negative ones included, a
// string whose code is, or a string the dictionary never issued. A FLOAT
// constant still compares numerically with an INT column.
func testScanWhereWidths(t *testing.T, k vecKind, tops []int64, consts func(rel *Relation, top int64) []Value) {
	for _, top := range tops {
		rel := vecRel(t, 300, 5)
		rel.Insert(k.row(rel, top))
		rel.Delete(7) // a tombstone holding 2 is not selected
		for _, c := range consts(rel, top) {
			var got, want []RowID
			rel.ScanWhere(k.col, c, nil, func(id RowID, _ Tuple) bool {
				got = append(got, id)
				return true
			})
			rel.Scan(func(id RowID, tu Tuple) bool {
				if tu[k.col].Equal(c) {
					want = append(want, id)
				}
				return true
			})
			if !slices.Equal(got, want) {
				t.Errorf("%d B per slot, column = %v: ScanWhere selects %v, want %v", widthOf(rel, k.col), c, got, want)
			}
		}
	}
	// A constant outside the width selects nothing, though in S its string
	// has a code.
	rel := vecRel(t, 300, 256)
	for _, tc := range k.widths {
		if tc.width == 1 {
			continue
		}
		n := 0
		rel.ScanWhere(k.col, k.val(rel, tc.x), nil, func(RowID, Tuple) bool { n++; return true })
		if n != 0 {
			t.Errorf("column = %d over a 1 B vector selects %d rows", tc.x, n)
		}
	}
}

// TestCodesLentViewStable: a vector lent by StringCodes, at 1 B or 2 B,
// reads the same codes after the lending world and a clone of it write,
// widening to 4 B included.
func TestCodesLentViewStable(t *testing.T) {
	for _, tc := range []struct{ distinct, width int }{{100, 1}, {400, 2}} {
		a := vecRel(t, 800, tc.distinct)
		view, _, err := a.StringCodes(1)
		if err != nil {
			t.Fatal(err)
		}
		if view.width() != tc.width {
			t.Fatalf("%d strings: lent %d B per slot, want %d", tc.distinct, view.width(), tc.width)
		}
		want := codesOf(view)
		b := a.Clone()
		for i, w := range []*Relation{a, b} {
			for k := range 300 {
				if err := w.SetCol(RowID(k), 1, String("w"+strconv.Itoa(i)+"_"+strconv.Itoa(k))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Insert(codesKind.row(w, 1<<16)); err != nil {
				t.Fatal(err)
			}
		}
		if widthOf(a, 1) != 4 || widthOf(b, 1) != 4 {
			t.Fatalf("%d strings: the writers did not widen", tc.distinct)
		}
		if view.Len() != 800 || !slices.Equal(codesOf(view), want) {
			t.Errorf("%d strings: the lent view changed under writes", tc.distinct)
		}
	}
}

// TestNumsNegativeAndFloatBits: a negative integer, and a float's IEEE 754
// bits, take 8 B per slot, and every value in the column reads back with
// its kind and bits: by GetCol, by a scan, and after a snapshot.
func TestNumsNegativeAndFloatBits(t *testing.T) {
	db := NewDB()
	rel := db.MustCreate(MustSchema("F", Column{"K", TInt}, Column{"X", TFloat}))
	rows := []Tuple{
		{Int(1), Int(2)}, {Int(2), Int(0)}, {Int(3), Float(0)},
	}
	for _, row := range rows {
		rel.Insert(row)
	}
	// Integers, and 0.0 (whose bits are 0), fit a byte.
	if wk, wx := widthOf(rel, 0), widthOf(rel, 1); wk != 1 || wx != 1 {
		t.Fatalf("small integers and 0.0: %d and %d B per slot, want 1 and 1", wk, wx)
	}
	more := []Tuple{
		{Int(-7), Float(0.5)}, {Int(math.MinInt64), Float(math.Copysign(0, -1))},
		{Int(math.MaxInt64), Float(math.Inf(-1))}, {Int(4), Int(-3)},
	}
	for _, row := range more {
		rel.Insert(row)
	}
	rows = append(rows, more...)
	if wk, wx := widthOf(rel, 0), widthOf(rel, 1); wk != 8 || wx != 8 {
		t.Fatalf("negative integers and float bits: %d and %d B per slot, want 8 and 8", wk, wx)
	}
	check := func(rel *Relation, how string) {
		t.Helper()
		for id, want := range rows {
			if got, _ := rel.Get(RowID(id)); !got.Identical(want) {
				t.Errorf("%s: row %d reads %v, want %v", how, id, got, want)
			}
		}
		rel.Scan(func(id RowID, got Tuple) bool {
			if !got.Identical(rows[id]) {
				t.Errorf("%s: a scan reads row %d as %v, want %v", how, id, got, rows[id])
			}
			return true
		})
	}
	check(rel, "stored")
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Relation("F")
	if wk, wx := widthOf(got, 0), widthOf(got, 1); wk != 8 || wx != 8 {
		t.Errorf("decoded: %d and %d B per slot, want 8 and 8", wk, wx)
	}
	check(got, "decoded")
}
