package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// refSide is the map-of-maps join side the slot table replaced — join key
// → tuple key → row, one cloned tuple and two key strings per row — kept
// as the slot table's reference.
type refSide struct {
	keyIdx  []int
	buckets map[string]map[string]*ra.BagRow
}

func newRefSide(keyIdx []int) *refSide {
	return &refSide{keyIdx: keyIdx, buckets: make(map[string]map[string]*ra.BagRow)}
}

func (s *refSide) add(t relstore.Tuple, n int64) {
	jk, tk := string(ra.AppendKeyOf(nil, t, s.keyIdx)), t.Key()
	bucket := s.buckets[jk]
	if bucket == nil {
		bucket = make(map[string]*ra.BagRow)
		s.buckets[jk] = bucket
	}
	if cur, ok := bucket[tk]; ok {
		if cur.N += n; cur.N == 0 {
			delete(bucket, tk)
			if len(bucket) == 0 {
				delete(s.buckets, jk)
			}
		}
		return
	}
	bucket[tk] = &ra.BagRow{Tuple: t.Clone(), N: n}
}

func (s *refSide) count(t relstore.Tuple, keyIdx []int) int64 {
	if r := s.buckets[string(ra.AppendKeyOf(nil, t, keyIdx))][t.Key()]; r != nil {
		return r.N
	}
	return 0
}

func (s *refSide) rows() int {
	n := 0
	for _, b := range s.buckets {
		n += len(b)
	}
	return n
}

// probe returns the rows matching p's columns idx, as tuple key → count.
func (s *refSide) probe(p relstore.Tuple, idx []int) map[string]int64 {
	got := make(map[string]int64)
	for k, r := range s.buckets[string(ra.AppendKeyOf(nil, p, idx))] {
		got[k] = r.N
	}
	return got
}

// probeSlots is probe over the slot table, walking the chain as a join
// probe does. A row met twice would show as a doubled count.
func probeSlots(s *sideState, p relstore.Tuple, idx []int) map[string]int64 {
	got := make(map[string]int64)
	for i := s.head(p, idx); i >= 0; {
		sl, row := s.at(i)
		got[row.Key()] += sl.n
		i = sl.next
	}
	return got
}

// collidingInts returns pairs of distinct integers whose key encodings
// hash alike in the join indexes, found by brute force for this process's
// hash seed.
func collidingInts(t *testing.T, pairs int) [][2]int64 {
	t.Helper()
	seen := make(map[uint32]int64)
	var out [][2]int64
	var buf []byte
	for v := int64(0); len(out) < pairs; v++ {
		if v > 1<<22 {
			t.Fatalf("found only %d colliding pairs", len(out))
		}
		buf = relstore.Int(v).AppendKey(buf[:0])
		h := hashKey(buf)
		if w, ok := seen[h]; ok {
			out = append(out, [2]int64{w, v})
			continue
		}
		seen[h] = v
	}
	return out
}

// TestSideStateMatchesReference drives a slot-table join side and the
// reference side with the same random signed adds and, after every add,
// compares every join key's probe result, the row and key counts, and
// the slot count against the peak number of live rows.
func TestSideStateMatchesReference(t *testing.T) {
	ints := func(vs ...int64) []relstore.Value {
		out := make([]relstore.Value, len(vs))
		for i, v := range vs {
			out[i] = relstore.Int(v)
		}
		return out
	}
	var colliding []relstore.Value
	for _, p := range collidingInts(t, 3) {
		colliding = append(colliding, ints(p[0], p[1])...)
	}
	mixed := []relstore.Value{relstore.Int(1), relstore.Float(1), relstore.String("1"), relstore.Int(0), relstore.Float(0)}
	cases := []struct {
		name   string
		keyIdx []int
		cols   [][]relstore.Value // column domains; the arity is len(cols)
		counts []int64
		steps  int
	}{
		// Two keys, four distinct rows: nearly every add hits a row.
		{"duplicate-heavy", []int{0}, [][]relstore.Value{ints(0, 1), ints(7, 8)}, []int64{1, 1, 1, 2, -1}, 3000},
		// Counts of either sign on a small domain: rows and whole keys
		// drop to zero and come back, and rows go negative before they
		// are inserted.
		{"keys leave and return", []int{1}, [][]relstore.Value{ints(0, 1, 2), ints(0, 1, 2, 3, 4, 5)}, []int64{1, -1}, 4000},
		{"transiently negative", []int{0}, [][]relstore.Value{ints(0, 1, 2), ints(0, 1)}, []int64{-3, -1, 1, 2}, 3000},
		// One chain holds every row, and empties now and then.
		{"cross join", nil, [][]relstore.Value{ints(0, 1), ints(0, 1)}, []int64{1, -1}, 3000},
		// Keys and rows whose encodings hash alike must stay apart.
		{"hash collisions", []int{0}, [][]relstore.Value{colliding}, []int64{1, -1, 1}, 3000},
		// Identical, not Equal: Int 1, Float 1 and "1" are three keys.
		{"two-column key", []int{2, 0}, [][]relstore.Value{mixed, ints(0, 1), mixed}, []int64{1, -1, 3}, 4000},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(50 + ci)))
			s := newSideState(c.keyIdx, len(c.cols))
			ref := newRefSide(c.keyIdx)
			// Every join key of the domain, as a probe tuple holding just
			// the key, in the order of c.keyIdx.
			probes := []relstore.Tuple{{}}
			for _, j := range c.keyIdx {
				var next []relstore.Tuple
				for _, p := range probes {
					for _, v := range c.cols[j] {
						next = append(next, append(p.Clone(), v))
					}
				}
				probes = next
			}
			probeIdx := make([]int, len(c.keyIdx))
			for i := range probeIdx {
				probeIdx[i] = i
			}
			present, gone := make(map[string]bool), make(map[string]bool)
			returned, negative, peak := 0, 0, 0
			tup := make(relstore.Tuple, len(c.cols))
			for step := 0; step < c.steps; step++ {
				for j, dom := range c.cols {
					tup[j] = dom[rng.Intn(len(dom))]
				}
				n := c.counts[rng.Intn(len(c.counts))]
				if cur := ref.count(tup, c.keyIdx); cur != 0 && rng.Intn(2) == 0 {
					n = -cur // retract the row, so rows and keys leave often
				}
				// The slot table must copy: tup is scratch, reused next step.
				s.add(tup, n)
				ref.add(tup, n)
				if ref.count(tup, c.keyIdx) < 0 {
					negative++
				}
				peak = max(peak, ref.rows())
				if s.live != ref.rows() || s.byKey.n != len(ref.buckets) {
					t.Fatalf("step %d: %d rows under %d keys, want %d under %d", step, s.live, s.byKey.n, ref.rows(), len(ref.buckets))
				}
				if int(s.used) > peak {
					t.Fatalf("step %d: %d slots handed out, peak live rows %d", step, s.used, peak)
				}
				for _, p := range probes {
					got, want := probeSlots(&s, p, probeIdx), ref.probe(p, probeIdx)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: probe %v = %v, want %v", step, p, got, want)
					}
					k := string(ra.AppendKeyOf(nil, p, probeIdx))
					switch now := len(want) > 0; {
					case now && gone[k]:
						returned++
						gone[k] = false
					case !now && present[k]:
						gone[k] = true
					}
					present[k] = len(want) > 0
				}
			}
			if returned == 0 || negative == 0 {
				t.Errorf("in %d steps %d join keys came back and %d rows went negative; want both", c.steps, returned, negative)
			}
		})
	}
}
