package relstore

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// codesOf copies a code vector of either width into a []uint32.
func codesOf(v Codes) []uint32 {
	out := make([]uint32, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// width is the width probe: the bytes a slot of v takes.
func (v *Codes) width() int {
	if v.wide != nil {
		return 4
	}
	return 1
}

// widthOf returns the bytes per slot of column col of rel.
func widthOf(rel *Relation, col int) int { return rel.cols[col].codes.width() }

// wordsRel returns a relation (K INT, S STRING) whose row i holds the
// string "s<i % distinct>", so S holds distinct strings coded 0 up.
func wordsRel(t *testing.T, rows, distinct int) *Relation {
	t.Helper()
	rel := NewDB().MustCreate(MustSchema("W", Column{"K", TInt}, Column{"S", TString}))
	for i := range rows {
		if _, err := rel.Insert(Tuple{Int(int64(i)), String("s" + strconv.Itoa(i%distinct))}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// snapshotOf reads every row of rel: its S value and S code.
func snapshotOf(rel *Relation) (vals []string, codes []uint32) {
	for id := range rel.NextID() {
		v, _ := rel.GetCol(id, 1)
		vals = append(vals, v.AsString())
		codes = append(codes, rel.CodeAt(id, 1))
	}
	return vals, codes
}

// TestCodesNarrowUpTo256: a STRING column holding at most 256 distinct
// strings, codes 0–255, keeps 1 B per slot, and reads every row back.
func TestCodesNarrowUpTo256(t *testing.T) {
	rel := wordsRel(t, 1000, 256)
	if w := widthOf(rel, 1); w != 1 {
		t.Fatalf("256 distinct strings: %d B per slot, want 1", w)
	}
	for id := range rel.NextID() {
		if v, _ := rel.GetCol(id, 1); v.AsString() != "s"+strconv.Itoa(int(id)%256) || rel.CodeAt(id, 1) != uint32(id)%256 {
			t.Fatalf("row %d reads %v, code %d", id, v, rel.CodeAt(id, 1))
		}
	}
}

// TestCodesWiden: storing the 257th string, by Insert or by SetCol,
// widens the column to 4 B per slot, and every earlier row reads back the
// value and code it held.
func TestCodesWiden(t *testing.T) {
	for _, how := range []string{"insert", "setcol"} {
		t.Run(how, func(t *testing.T) {
			rel := wordsRel(t, 600, 256)
			vals, codes := snapshotOf(rel)
			if how == "insert" {
				if _, err := rel.Insert(Tuple{Int(600), String("new")}); err != nil {
					t.Fatal(err)
				}
			} else if err := rel.SetCol(599, 1, String("new")); err != nil {
				t.Fatal(err)
			} else {
				vals, codes = vals[:599], codes[:599]
			}
			if w := widthOf(rel, 1); w != 4 {
				t.Fatalf("after the 257th string: %d B per slot, want 4", w)
			}
			last := rel.NextID() - 1
			if v, _ := rel.GetCol(last, 1); v.AsString() != "new" || rel.CodeAt(last, 1) != 256 {
				t.Errorf("row %d reads %v, code %d; want new, 256", last, v, rel.CodeAt(last, 1))
			}
			gotVals, gotCodes := snapshotOf(rel)
			if !slices.Equal(gotVals[:len(vals)], vals) || !slices.Equal(gotCodes[:len(codes)], codes) {
				t.Error("widening changed an earlier row's value or code")
			}
			// A vector never narrows back.
			if err := rel.SetCol(last, 1, String("s0")); err != nil {
				t.Fatal(err)
			}
			if w := widthOf(rel, 1); w != 4 {
				t.Errorf("after storing a small code again: %d B per slot, want 4", w)
			}
		})
	}
}

// TestCodesCloneWidensAlone: after a Clone, one world widens its column
// while another goroutine reads the other world's rows from the narrow
// vector they shared; the reader sees what it saw before, and a world
// that only copies on write stays narrow.
func TestCodesCloneWidensAlone(t *testing.T) {
	a := wordsRel(t, 2000, 200)
	b := a.Clone()
	vals, codes := snapshotOf(a)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range 500 {
			if err := b.SetCol(RowID(i), 1, String("wide"+strconv.Itoa(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			if v, c := snapshotOf(a); !slices.Equal(v, vals) || !slices.Equal(c, codes) {
				t.Error("the clone's writes changed the world it was cloned from")
				return
			}
		}
	}()
	wg.Wait()
	if wa, wb := widthOf(a, 1), widthOf(b, 1); wa != 1 || wb != 4 {
		t.Fatalf("widths %d and %d B per slot, want 1 in the untouched world and 4 in the writer", wa, wb)
	}
	if v, _ := b.GetCol(499, 1); v.AsString() != "wide499" {
		t.Errorf("the writer's row 499 reads %v", v)
	}

	// A copy on write of a narrow vector is narrow: the codes fit a byte.
	c := a.Clone()
	if err := c.SetCol(3, 1, String("s7")); err != nil {
		t.Fatal(err)
	}
	if c.cols[1] == a.cols[1] {
		t.Fatal("SetCol on a clone wrote the shared vector")
	}
	if w := widthOf(c, 1); w != 1 {
		t.Errorf("a copy on write of a narrow vector: %d B per slot, want 1", w)
	}
	if _, err := c.Insert(Tuple{Int(-1), String("s9")}); err != nil || widthOf(c, 1) != 1 {
		t.Errorf("an Insert of a known string: %d B per slot (err %v), want 1", widthOf(c, 1), err)
	}
}

// TestCodesDumpIgnoresWidth: the same rows held narrow and held widened
// dump to identical bytes, since a snapshot writes every code as 4 bytes
// of its own first-use numbering.
func TestCodesDumpIgnoresWidth(t *testing.T) {
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
			rel.Insert(Tuple{Int(int64(i)), String("s" + strconv.Itoa(i%50))})
		}
		return db, rel
	}
	narrowDB, narrow := world()
	wideDB, wide := world()
	// Widen, then put the row back as it was.
	for i := range 300 {
		wide.Intern(1, "x"+strconv.Itoa(i))
	}
	old, _ := wide.GetCol(7, 1)
	if err := wide.SetCol(7, 1, String("x299")); err != nil {
		t.Fatal(err)
	}
	if err := wide.SetCol(7, 1, old); err != nil {
		t.Fatal(err)
	}
	if widthOf(narrow, 1) != 1 || widthOf(wide, 1) != 4 {
		t.Fatalf("widths %d and %d, want 1 and 4", widthOf(narrow, 1), widthOf(wide, 1))
	}
	if !bytes.Equal(dump(narrowDB), dump(wideDB)) {
		t.Error("the same rows dump differently held narrow and held wide")
	}
}

// TestCodesReadDBWidth: a snapshot column of at most 256 strings decodes
// narrow and one of more decodes wide, reading back the same rows.
func TestCodesReadDBWidth(t *testing.T) {
	for _, tc := range []struct{ distinct, width int }{{1, 1}, {256, 1}, {257, 4}, {1000, 4}} {
		db := NewDB()
		rel := db.MustCreate(MustSchema("W", Column{"K", TInt}, Column{"S", TString}))
		for i := range 1200 {
			rel.Insert(Tuple{Int(int64(i)), String("s" + strconv.Itoa(i%tc.distinct))})
		}
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDB(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := back.Relation("W")
		if w := widthOf(got, 1); w != tc.width {
			t.Errorf("%d strings decode at %d B per slot, want %d", tc.distinct, w, tc.width)
		}
		wantVals, _ := snapshotOf(rel)
		if gotVals, _ := snapshotOf(got); !slices.Equal(gotVals, wantVals) {
			t.Errorf("%d strings: the decoded rows differ", tc.distinct)
		}
	}
}

// TestCodesLentViewStable: a Codes view lent by StringCodes, narrow or
// wide, reads the same codes after the lending world and a clone of it
// write, widening included.
func TestCodesLentViewStable(t *testing.T) {
	for _, distinct := range []int{100, 400} {
		a := wordsRel(t, 800, distinct)
		view, _, err := a.StringCodes(1)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 1, false: 4}[distinct <= 256]; view.width() != want {
			t.Fatalf("%d strings: lent %d B per slot, want %d", distinct, view.width(), want)
		}
		want := codesOf(view)
		b := a.Clone()
		for i, w := range []*Relation{a, b} {
			for k := range 300 {
				if err := w.SetCol(RowID(k), 1, String("w"+strconv.Itoa(i)+"_"+strconv.Itoa(k))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Insert(Tuple{Int(-1), String("s1")}); err != nil {
				t.Fatal(err)
			}
		}
		if widthOf(a, 1) != 4 || widthOf(b, 1) != 4 {
			t.Fatalf("%d strings: the writers did not widen", distinct)
		}
		if view.Len() != 800 || !slices.Equal(codesOf(view), want) {
			t.Errorf("%d strings: the lent view changed under writes", distinct)
		}
	}
}
