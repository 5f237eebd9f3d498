package relstore

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// numsWidth returns the bytes per slot of numeric column col of rel.
func numsWidth(rel *Relation, col int) int { return 1 << rel.cols[col].nums.lg }

// intRel returns a relation (K INT, S STRING) whose row i holds K = val(i).
func intRel(t *testing.T, rows int, val func(i int) int64) *Relation {
	t.Helper()
	rel := NewDB().MustCreate(MustSchema("N", Column{"K", TInt}, Column{"S", TString}))
	for i := range rows {
		if _, err := rel.Insert(Tuple{Int(val(i)), String("s" + strconv.Itoa(i%7))}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// keysOf reads column K of every row, by GetCol and by a scan, and fails
// the test when the two disagree.
func keysOf(t *testing.T, rel *Relation) []int64 {
	t.Helper()
	var got, scanned []int64
	for id := range rel.NextID() {
		v, _ := rel.GetCol(id, 0)
		got = append(got, v.AsInt())
	}
	rel.Scan(func(_ RowID, tu Tuple) bool {
		scanned = append(scanned, tu[0].AsInt())
		return true
	})
	if !slices.Equal(got, scanned) {
		t.Fatalf("GetCol reads %v, a scan %v", got, scanned)
	}
	return got
}

// byte8 is a K column of 1 B values: row i holds i % 256.
func byte8(i int) int64 { return int64(i % 256) }

// TestNumsWiden: an INT column whose values are all in [0, 256) is 1 B
// per slot. Storing a value, by Insert or by SetCol, widens it to the
// narrowest of 2, 4 and 8 B that holds the value, and only when it does
// not fit; every earlier row reads back what it held, and storing a small
// value again does not narrow it back.
func TestNumsWiden(t *testing.T) {
	for _, tc := range []struct {
		x     int64
		width int
	}{
		{255, 1}, {256, 2}, {1<<16 - 1, 2}, {1 << 16, 4}, {1<<32 - 1, 4}, {1 << 32, 8},
		{math.MaxInt64, 8}, {-1, 8}, {math.MinInt64, 8},
	} {
		for _, how := range []string{"insert", "setcol"} {
			t.Run(how+"/"+strconv.FormatInt(tc.x, 10), func(t *testing.T) {
				rel := intRel(t, 600, byte8)
				if w := numsWidth(rel, 0); w != 1 {
					t.Fatalf("values in [0, 256): %d B per slot, want 1", w)
				}
				want := keysOf(t, rel)
				if how == "insert" {
					if _, err := rel.Insert(Tuple{Int(tc.x), String("new")}); err != nil {
						t.Fatal(err)
					}
					want = append(want, tc.x)
				} else {
					if err := rel.SetCol(599, 0, Int(tc.x)); err != nil {
						t.Fatal(err)
					}
					want[599] = tc.x
				}
				if w := numsWidth(rel, 0); w != tc.width {
					t.Fatalf("after storing %d: %d B per slot, want %d", tc.x, w, tc.width)
				}
				if got := keysOf(t, rel); !slices.Equal(got, want) {
					t.Fatalf("after storing %d the rows read %v, want %v", tc.x, got, want)
				}
				if err := rel.SetCol(599, 0, Int(3)); err != nil {
					t.Fatal(err)
				}
				if w := numsWidth(rel, 0); w != tc.width {
					t.Errorf("after storing a small value again: %d B per slot, want %d", w, tc.width)
				}
			})
		}
	}
}

// TestNumsReadDBWidth: a snapshot's INT column decodes at the narrowest
// width that holds its live values, whatever width the dumped world held
// it at, and reads back the same rows; a BOOL column decodes at 1 B.
func TestNumsReadDBWidth(t *testing.T) {
	for _, tc := range []struct {
		top   int64 // the largest value, stored in the last row
		width int
	}{
		{0, 1}, {255, 1}, {256, 2}, {1<<16 - 1, 2}, {1 << 16, 4}, {1<<32 - 1, 4}, {1 << 32, 8}, {-1, 8},
	} {
		db := NewDB()
		rel := db.MustCreate(MustSchema("N", Column{"K", TInt}, Column{"OK", TBool}))
		for i := range 1000 {
			rel.Insert(Tuple{Int(int64(i % 200)), Bool(i%3 == 0)})
		}
		rel.Insert(Tuple{Int(tc.top), Bool(true)})
		// A deleted row's value does not count: this one would need 8 B.
		id, _ := rel.Insert(Tuple{Int(math.MinInt64), Bool(false)})
		rel.Delete(id)
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDB(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := back.Relation("N")
		if w := numsWidth(got, 0); w != tc.width {
			t.Errorf("largest value %d decodes at %d B per slot, want %d", tc.top, w, tc.width)
		}
		if w := numsWidth(got, 1); w != 1 {
			t.Errorf("a BOOL column decodes at %d B per slot, want 1", w)
		}
		for id := range rel.NextID() {
			a, okA := rel.Get(id)
			b, okB := got.Get(id)
			if okA != okB || (okA && !a.Identical(b)) {
				t.Fatalf("largest value %d: row %d reads %v (%v), was %v (%v)", tc.top, id, b, okB, a, okA)
			}
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
	if wk, wx := numsWidth(rel, 0), numsWidth(rel, 1); wk != 1 || wx != 1 {
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
	if wk, wx := numsWidth(rel, 0), numsWidth(rel, 1); wk != 8 || wx != 8 {
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
	if wk, wx := numsWidth(got, 0), numsWidth(got, 1); wk != 8 || wx != 8 {
		t.Errorf("decoded: %d and %d B per slot, want 8 and 8", wk, wx)
	}
	check(got, "decoded")
}

// TestNumsScanWhereWidths: ScanWhere's INT = c, compared at the column's
// width, selects the rows a scan filtered by Value.Equal selects, at every
// width; a constant the width cannot hold, negative ones included, selects
// nothing, and a FLOAT constant still compares numerically.
func TestNumsScanWhereWidths(t *testing.T) {
	for _, top := range []int64{255, 1<<16 - 1, 1<<32 - 1, 1 << 40} {
		rel := intRel(t, 300, func(i int) int64 { return int64(i % 5) })
		rel.Insert(Tuple{Int(top), String("top")})
		rel.Delete(7) // a tombstone holding 2 is not selected
		for _, c := range []Value{
			Int(0), Int(2), Int(top), Int(-1), Int(top + 1), Int(256), Int(1 << 16), Int(1 << 32),
			Int(math.MinInt64), Float(2), Float(2.5), String("2"), Bool(true),
		} {
			var got, want []RowID
			rel.ScanWhere(0, c, nil, func(id RowID, _ Tuple) bool {
				got = append(got, id)
				return true
			})
			rel.Scan(func(id RowID, tu Tuple) bool {
				if tu[0].Equal(c) {
					want = append(want, id)
				}
				return true
			})
			if !slices.Equal(got, want) {
				t.Errorf("%d B per slot, K = %v: ScanWhere selects %v, want %v", numsWidth(rel, 0), c, got, want)
			}
		}
	}
	// A constant outside the width selects nothing.
	rel := intRel(t, 300, byte8)
	for _, c := range []int64{256, 1 << 16, 1 << 32, -1, math.MinInt64} {
		n := 0
		rel.ScanWhere(0, Int(c), nil, func(RowID, Tuple) bool { n++; return true })
		if n != 0 {
			t.Errorf("K = %d over a 1 B column selects %d rows", c, n)
		}
	}
}

// TestNumsCloneWidensAlone: after a Clone, one world widens its INT column
// while another goroutine scans the other world's narrow vector, which
// they shared; the reader sees what it saw before, and the writer's copy
// is made at the new width in one allocation.
func TestNumsCloneWidensAlone(t *testing.T) {
	a := intRel(t, 2000, byte8)
	b := a.Clone()
	want := keysOf(t, a)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range 500 {
			if err := b.SetCol(RowID(i), 0, Int(int64(1<<20+i))); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := b.Insert(Tuple{Int(1 << 40), String("x")}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			var got []int64
			a.Scan(func(_ RowID, tu Tuple) bool {
				got = append(got, tu[0].AsInt())
				return true
			})
			n := 0
			a.ScanWhere(0, Int(7), nil, func(RowID, Tuple) bool { n++; return true })
			if !slices.Equal(got, want) || n != 8 {
				t.Error("the clone's writes changed the world it was cloned from")
				return
			}
		}
	}()
	wg.Wait()
	if wa, wb := numsWidth(a, 0), numsWidth(b, 0); wa != 1 || wb != 8 {
		t.Fatalf("widths %d and %d B per slot, want 1 in the untouched world and 8 in the writer", wa, wb)
	}
	if v, _ := b.GetCol(499, 0); v.AsInt() != 1<<20+499 {
		t.Errorf("the writer's row 499 reads %v", v)
	}

	// A copy on write of a narrow vector is narrow when the value fits,
	// and made at the value's width when it does not.
	c := a.Clone()
	if err := c.SetCol(3, 0, Int(9)); err != nil {
		t.Fatal(err)
	}
	if c.cols[0] == a.cols[0] || numsWidth(c, 0) != 1 {
		t.Errorf("a fitting SetCol on a clone: shared %v, %d B per slot; want a private 1 B copy",
			c.cols[0] == a.cols[0], numsWidth(c, 0))
	}
	d := a.Clone()
	n, size := measure(func() { d.SetCol(3, 0, Int(70000)) })
	if numsWidth(d, 0) != 4 || n != 2 || size > 4*2000+512 {
		t.Errorf("a widening SetCol on a clone: %d B per slot, %v allocations, %v bytes; want 4, 2 (header and vector), ≤ %d",
			numsWidth(d, 0), n, size, 4*2000+512)
	}
}
