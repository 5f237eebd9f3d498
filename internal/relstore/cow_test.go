package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var mixSchema = MustSchema("MIX",
	Column{"K", TInt}, Column{"X", TFloat}, Column{"S", TString}, Column{"OK", TBool})

func randomMix(rng *rand.Rand) Tuple {
	x := Float(float64(rng.Intn(8)) / 2)
	if rng.Intn(3) == 0 {
		x = Int(int64(rng.Intn(4))) // an integer in the FLOAT column
	}
	return Tuple{Int(int64(rng.Intn(5))), x, String(strconv.Itoa(rng.Intn(4))), Bool(rng.Intn(2) == 0)}
}

// world pairs a relation with the trivial store it is held to: a map of
// tuples and an id counter.
type world struct {
	db   *DB
	rel  *Relation
	ref  map[RowID]Tuple
	next RowID
}

func (w *world) clone() *world {
	c := &world{db: w.db.Clone(), ref: make(map[RowID]Tuple, len(w.ref)), next: w.next}
	c.rel, _ = c.db.Relation("MIX")
	for id, t := range w.ref {
		c.ref[id] = t
	}
	return c
}

// check holds the relation to the reference: Len, an ascending scan of
// exactly the reference's rows, and Get and GetCol of every id up to the
// counter, dead ones included.
func (w *world) check() error {
	if w.rel.Len() != len(w.ref) {
		return fmt.Errorf("Len %d, reference holds %d rows", w.rel.Len(), len(w.ref))
	}
	var err error
	prev, seen := RowID(-1), 0
	w.rel.Scan(func(id RowID, tu Tuple) bool {
		if want, ok := w.ref[id]; id <= prev || !ok || !tu.Identical(want) {
			err = fmt.Errorf("scan reads row %d after row %d as %v, reference %v (present %v)", id, prev, tu, want, ok)
		}
		prev = id
		seen++
		return err == nil
	})
	if err == nil && seen != len(w.ref) {
		err = fmt.Errorf("scan visited %d rows of %d", seen, len(w.ref))
	}
	for id := RowID(-1); id <= w.next && err == nil; id++ {
		got, ok := w.rel.Get(id)
		want, live := w.ref[id]
		if ok != live || (ok && !got.Identical(want)) {
			return fmt.Errorf("Get(%d) = %v, %v; reference %v, %v", id, got, ok, want, live)
		}
		for col := range want {
			if v, _ := w.rel.GetCol(id, col); !v.identical(want[col]) {
				return fmt.Errorf("GetCol(%d, %d) = %v, reference %v", id, col, v, want[col])
			}
		}
	}
	return err
}

// step applies one random write to the relation and to the reference.
func (w *world) step(rng *rand.Rand) error {
	ids := make([]RowID, 0, len(w.ref))
	for id := range w.ref {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	op := rng.Intn(5)
	if len(ids) == 0 {
		op = 0
	}
	var err error
	switch id := RowID(0); op {
	case 0:
		row := randomMix(rng)
		if id, err = w.rel.Insert(row); err == nil && id != w.next {
			return fmt.Errorf("Insert assigned id %d, want %d: an id was reused or skipped", id, w.next)
		}
		w.ref[id] = row
		w.next++
	case 1:
		id = ids[rng.Intn(len(ids))]
		row := randomMix(rng) // a whole-row update: every column stored
		for col := range row {
			if err = w.rel.SetCol(id, col, row[col]); err != nil {
				return err
			}
		}
		w.ref[id] = row
	case 2, 3:
		id = ids[rng.Intn(len(ids))]
		col := rng.Intn(4)
		row := w.ref[id].Clone()
		row[col] = randomMix(rng)[col]
		err = w.rel.SetCol(id, col, row[col])
		w.ref[id] = row
	case 4:
		id = ids[rng.Intn(len(ids))]
		err = w.rel.Delete(id)
		delete(w.ref, id)
	}
	return err
}

// TestCopyOnWriteModel drives a family of clones through random inserts,
// row updates, column stores, deletes and further clones, holding every
// member to its own map-of-tuples reference after every step: a write in
// one world never shows in another, deleted ids stay dead in clones made
// afterwards, ids are never reused, scans ascend. A member re-read from
// its own Dump joins the family too, so worlds whose tombstones were put
// back by the decoder share and copy like the others.
func TestCopyOnWriteModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := &world{db: NewDB(), ref: map[RowID]Tuple{}}
		first.rel = first.db.MustCreate(mixSchema)
		family := []*world{first}
		for i := 0; i < 20; i++ {
			if err := first.step(rng); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 400; step++ {
			w := family[rng.Intn(len(family))]
			switch k := rng.Intn(12); {
			case k == 0 && len(family) < 12:
				family = append(family, w.clone())
			case k == 1 && len(family) < 12:
				var buf bytes.Buffer
				if err := w.db.Dump(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := ReadDB(&buf)
				if err != nil {
					t.Fatal(err)
				}
				c := w.clone()
				c.db = back
				c.rel, _ = back.Relation("MIX")
				family = append(family, c)
			default:
				if err := w.step(rng); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			for i, m := range family {
				if err := m.check(); err != nil {
					t.Fatalf("seed %d step %d member %d of %d: %v", seed, step, i, len(family), err)
				}
			}
		}
	}
}

// TestCopyOnWriteRace runs the sharing pattern of the serving engine
// under the race detector: sibling clones of one prototype written on
// their own goroutines while other goroutines scan the prototype and
// clone it again, and a source world that keeps taking writes while
// clones of it — taken under the writer's lock, as store.Checkpoint does —
// are dumped outside it. Nobody may write a vector somebody else can read.
func TestCopyOnWriteRace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	proto := &world{db: NewDB(), ref: map[RowID]Tuple{}}
	proto.rel = proto.db.MustCreate(mixSchema)
	for i := 0; i < 300; i++ {
		if err := proto.step(rng); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	// Chains: each writes its own clone.
	chains := make([]*world, 4)
	for i := range chains {
		chains[i] = proto.clone()
		w, seed := chains[i], int64(100+i)
		run(func() {
			rng := rand.New(rand.NewSource(seed))
			for s := 0; s < 300; s++ {
				if err := w.step(rng); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	// Readers of the prototype: scans, and clones that are scanned.
	for i := 0; i < 2; i++ {
		run(func() {
			for s := 0; s < 20; s++ {
				c := proto.clone()
				for _, w := range []*world{proto, c} {
					n := 0
					w.rel.Scan(func(RowID, Tuple) bool { n++; return true })
					if n != len(proto.ref) {
						t.Errorf("a reader saw %d rows of the prototype's %d", n, len(proto.ref))
					}
				}
			}
		})
	}
	// The durable store: a shadow world written under a lock, checkpoint
	// clones taken under it and dumped outside it.
	shadow := proto.clone()
	var mu sync.Mutex
	run(func() {
		rng := rand.New(rand.NewSource(77))
		for s := 0; s < 300; s++ {
			mu.Lock()
			err := shadow.step(rng)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	run(func() {
		for s := 0; s < 10; s++ {
			mu.Lock()
			snap := shadow.clone()
			mu.Unlock()
			var buf bytes.Buffer
			if err := snap.db.Dump(&buf); err != nil {
				t.Error(err)
				return
			}
			back, err := ReadDB(&buf)
			if err != nil {
				t.Error(err)
				return
			}
			snap.rel, _ = back.Relation("MIX")
			if err := snap.check(); err != nil {
				t.Errorf("checkpoint %d read back: %v", s, err)
			}
		}
	})
	wg.Wait()
	for i, w := range append(chains, proto, shadow) {
		if err := w.check(); err != nil {
			t.Errorf("world %d (chains, then prototype, then shadow): %v", i, err)
		}
	}
}

// allocBudget reads the named ceilings from testdata/alloc_budget.txt.
func allocBudget(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	budget := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			t.Fatalf("parsing alloc budget line %q", line)
		}
		budget[name] = n
	}
	return budget
}

// measure reports the heap allocations and bytes of one call of f.
func measure(f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestCloneAllocBudget is the allocation gate of world sharing
// (testdata/alloc_budget.txt): cloning a 5 000-token world allocates per
// column, not per row, and the first write to a clone copies the one
// vector it writes to.
func TestCloneAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := allocBudget(t)
	const rows = 5000
	db := NewDB()
	tok := db.MustCreate(MustSchema("TOKEN", Column{"TOK_ID", TInt}, Column{"DOC_ID", TInt},
		Column{"STRING", TString}, Column{"LABEL", TString}, Column{"TRUTH", TString}))
	for i := 0; i < rows; i++ {
		tok.Insert(Tuple{Int(int64(i)), Int(int64(i / 40)), String("w" + strconv.Itoa(i%97)), String("O"), String("O")})
	}
	within := func(name string, got float64) {
		t.Helper()
		t.Logf("%s: %v", name, got)
		if max, ok := budget[name]; !ok || got > max {
			t.Errorf("%s = %v, budget %v", name, got, max)
		}
	}
	var c *DB
	n, b := measure(func() { c = db.Clone() })
	within("clone_allocs", n)
	within("clone_bytes", b)

	ctok, _ := c.Relation("TOKEN")
	n, b = measure(func() { ctok.SetCol(17, 3, String("B-PER")) })
	within("first_flip_allocs", n)
	within("first_flip_bytes", b)
	for ci := range ctok.cols {
		if shared := ctok.cols[ci] == tok.cols[ci]; shared != (ci != 3) {
			t.Errorf("after a LABEL flip in the clone, column %d shared with the source = %v", ci, shared)
		}
	}
	if ctok.rows != tok.rows {
		t.Error("a flip copied the row set")
	}
	n, _ = measure(func() { ctok.SetCol(18, 3, String("B-ORG")) })
	within("later_flip_allocs", n)
	if v, _ := tok.GetCol(17, 3); v.AsString() != "O" {
		t.Error("the flip shows in the source world")
	}
}
