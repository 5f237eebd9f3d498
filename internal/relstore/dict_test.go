package relstore

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// TestStringDictionary holds the shared, append-only string dictionary to
// what sharing it must not change: what a world reads, what a read costs,
// and who may read while another world interns.
func TestStringDictionary(t *testing.T) {
	newWorld := func() (*DB, *Relation) {
		db := NewDB()
		r := db.MustCreate(MustSchema("R", Column{"K", TInt}, Column{"S", TString}))
		for i := 0; i < 50; i++ {
			r.Insert(Tuple{Int(int64(i)), String("s" + strconv.Itoa(i%5))})
		}
		return db, r
	}
	rel := func(db *DB) *Relation { r, _ := db.Relation("R"); return r }
	// count is the number of rows a point predicate on S selects.
	count := func(r *Relation, s string) int {
		n := 0
		r.ScanWhere(1, String(s), nil, func(RowID, Tuple) bool { n++; return true })
		return n
	}

	t.Run("isolation", func(t *testing.T) {
		db, parent := newWorld()
		a, b := rel(db.Clone()), rel(db.Clone())
		if _, err := a.Insert(Tuple{Int(-1), String("inserted")}); err != nil {
			t.Fatal(err)
		}
		if err := a.SetCol(7, 1, String("updated")); err != nil {
			t.Fatal(err)
		}
		if v, _ := a.GetCol(7, 1); v.AsString() != "updated" || count(a, "inserted") != 1 {
			t.Fatalf("the writing clone reads row 7 as %v and %d inserted rows", v, count(a, "inserted"))
		}
		for name, w := range map[string]*Relation{"parent": parent, "sibling": b} {
			if v, _ := w.GetCol(7, 1); v.AsString() != "s2" {
				t.Errorf("%s reads row 7 as %v, want s2", name, v)
			}
			if w.Len() != 50 {
				t.Errorf("%s holds %d rows, want 50", name, w.Len())
			}
			for _, s := range []string{"inserted", "updated"} {
				if n := count(w, s); n != 0 {
					t.Errorf("%s selects %d rows of %q", name, n, s)
				}
			}
			w.Scan(func(id RowID, tu Tuple) bool {
				if want := "s" + strconv.Itoa(int(id)%5); tu[1].AsString() != want {
					t.Errorf("%s scans row %d as %v, want %s", name, id, tu, want)
				}
				return true
			})
		}
	})

	t.Run("reads never intern", func(t *testing.T) {
		_, r := newWorld()
		d := r.cols[1].dict
		before := len(d.strs())
		for i := 0; i < 1000; i++ {
			if n := count(r, "absent"+strconv.Itoa(i)); n != 0 {
				t.Fatalf("an absent literal selects %d rows", n)
			}
		}
		// A literal of another kind selects nothing either.
		r.ScanWhere(1, Int(3), nil, func(RowID, Tuple) bool { t.Error("an INT literal matched a STRING row"); return false })
		if after, codes := len(d.strs()), len(*d.read.Load())+len(d.recent); after != before || codes != before {
			t.Errorf("1 000 scans for absent literals grew the dictionary from %d to %d strings (%d codes)", before, after, codes)
		}
		if n := count(r, "s3"); n != 10 {
			t.Errorf("a present literal selects %d rows, want 10", n)
		}
	})

	t.Run("intern fixes the first codes", func(t *testing.T) {
		r := NewDB().MustCreate(MustSchema("R", Column{"K", TInt}, Column{"S", TString}))
		if err := r.Intern(0, "x"); err == nil {
			t.Error("Intern into an INT column succeeded")
		}
		if err := r.Intern(1, "O", "B-PER", "O"); err != nil {
			t.Fatal(err)
		}
		r.Insert(Tuple{Int(1), String("B-PER")})
		r.Insert(Tuple{Int(2), String("w")})
		if got := r.cols[1].dict.strs(); !slices.Equal(got, []string{"O", "B-PER", "w"}) {
			t.Errorf("dictionary = %q, want the interned strings first, once each", got)
		}
		if r.cols[1].vec.At(0) != 1 {
			t.Errorf("B-PER stored as code %d, want 1", r.cols[1].vec.At(0))
		}
		if d := r.cols[1].dict; len(*d.read.Load()) != 2 {
			t.Errorf("the read map holds %d of the interned strings, want both", len(*d.read.Load()))
		}
	})

	t.Run("intern while reading", func(t *testing.T) {
		db, _ := newWorld()
		writer, reader := rel(db.Clone()), rel(db.Clone())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := String("w" + strconv.Itoa(i))
				if i%2 == 0 {
					writer.Insert(Tuple{Int(int64(i)), v})
				} else {
					writer.SetCol(RowID(i%50), 1, v)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := count(reader, "s"+strconv.Itoa(i%5)); n != 10 {
					t.Errorf("the reading clone selects %d rows, want 10", n)
					return
				}
				if v, ok := reader.GetCol(RowID(i%50), 1); !ok || v.AsString() != "s"+strconv.Itoa(i%5) {
					t.Errorf("the reading clone reads row %d as %v", i%50, v)
					return
				}
				if tu, ok := reader.Get(RowID(i % 50)); !ok || tu[1].AsString() != "s"+strconv.Itoa(i%5) {
					t.Errorf("the reading clone gets row %d as %v", i%50, tu)
					return
				}
			}
		}()
		wg.Wait()
		if n := count(writer, "w1998"); n != 1 {
			t.Errorf("the writing clone selects %d rows of its last insert", n)
		}
	})

	t.Run("concurrent writers agree on codes", func(t *testing.T) {
		db, _ := newWorld()
		a, b := rel(db.Clone()), rel(db.Clone())
		var wg sync.WaitGroup
		for _, w := range []*Relation{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					w.SetCol(RowID(i%50), 1, String("c"+strconv.Itoa(i)))
				}
			}()
		}
		wg.Wait()
		d := a.cols[1].dict
		if got := len(d.strs()); got != 5+1000 {
			t.Errorf("two clones writing the same 1 000 new strings grew the dictionary to %d, want %d", got, 5+1000)
		}
		for i := 950; i < 1000; i++ {
			va, _ := a.GetCol(RowID(i%50), 1)
			vb, _ := b.GetCol(RowID(i%50), 1)
			if va.AsString() != vb.AsString() || va.AsString() != "c"+strconv.Itoa(i) {
				t.Fatalf("row %d reads %v in one clone and %v in the other", i%50, va, vb)
			}
		}
	})
}

// TestStringCodesBorrowed: StringCodes lends the code vector without a
// copy and marks it shared, so SetCol and Insert on its relation, alone
// and beside a clone, running while other goroutines read the lent view,
// copy the vector instead of writing it. The view stays as lent, with no
// data race, though the writes store codes past 255 and so widen the
// writers' copies. Without a clone only the lend's own mark stops the
// relation writing in place.
func TestStringCodesBorrowed(t *testing.T) {
	const rows = 400
	for _, withClone := range []bool{false, true} {
		t.Run(fmt.Sprintf("clone=%v", withClone), func(t *testing.T) {
			db := tokenWorld(t, rows)
			rel, _ := db.Relation("TOKEN")
			if _, _, err := rel.StringCodes(0); err == nil {
				t.Error("StringCodes lent an INT column")
			}
			codes, table, err := rel.StringCodes(2)
			if err != nil {
				t.Fatal(err)
			}
			if codes.Len() != rows || cap(codes.w8) != rows {
				t.Fatalf("lent %d narrow codes with capacity %d, want %d and %d", codes.Len(), cap(codes.w8), rows, rows)
			}
			for i, c := range codesOf(codes) {
				if v, _ := rel.GetCol(RowID(i), 2); table[c] != v.AsString() {
					t.Fatalf("row %d: code %d reads %q, the row holds %v", i, c, table[c], v)
				}
			}
			want, wantTable := codesOf(codes), slices.Clone(table)
			writers := []*Relation{rel}
			if withClone {
				clone, _ := db.Clone().Relation("TOKEN")
				writers = append(writers, clone)
			}

			var wg sync.WaitGroup
			for w, r := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rows; i += 3 {
						if err := r.SetCol(RowID(i), 2, String("set"+strconv.Itoa(w*rows+i))); err != nil {
							t.Error(err)
							return
						}
						if _, err := r.Insert(Tuple{Int(int64(rows + i)), Int(99), String("ins" + strconv.Itoa(i)), String("O"), String("O")}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			changed := make([]int, 2)
			for g := range changed {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 200 {
						if !slices.Equal(codesOf(codes), want) {
							changed[g]++
						}
					}
				}()
			}
			wg.Wait()

			if changed[0]+changed[1] > 0 || !slices.Equal(codesOf(codes), want) {
				t.Fatalf("the lent vector changed under writes (seen by %d reads)", changed[0]+changed[1])
			}
			if !slices.Equal(table, wantTable) {
				t.Fatal("the lent dictionary table changed under writes")
			}
			for w, r := range writers {
				if v, _ := r.GetCol(0, 2); v.AsString() != "set"+strconv.Itoa(w*rows) || r.Len() != rows+(rows+2)/3 {
					t.Fatalf("writer %d: row 0 reads %v and %d rows; the writes did not land", w, v, r.Len())
				}
			}
		})
	}
}
