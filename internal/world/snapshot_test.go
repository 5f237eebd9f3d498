package world

import (
	"sync"
	"testing"

	"factordb/internal/relstore"
)

func TestEpochAdvancesPerDrain(t *testing.T) {
	log, id := setup(t)
	if log.Epoch() != 0 {
		t.Fatalf("fresh log epoch = %d, want 0", log.Epoch())
	}
	log.Drain()
	if log.Epoch() != 1 {
		t.Fatalf("epoch after one drain = %d, want 1", log.Epoch())
	}
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	if err := log.SetField(ref, relstore.String("B-ORG")); err != nil {
		t.Fatal(err)
	}
	// Writes accumulate within an epoch; only Drain closes it.
	if log.Epoch() != 1 {
		t.Fatalf("epoch moved on SetField: %d", log.Epoch())
	}
	log.Drain()
	if log.Epoch() != 2 {
		t.Fatalf("epoch after two drains = %d, want 2", log.Epoch())
	}
}

// stamped is a published test state carrying its epoch.
type stamped struct{ Epoch, State int64 }

func TestCellEmptyThenPublish(t *testing.T) {
	var c Cell[stamped]
	if s := c.Load(); s != nil {
		t.Fatal("empty cell reported a snapshot")
	}
	c.Publish(&stamped{Epoch: 3, State: 42})
	s := c.Load()
	if s == nil || s.Epoch != 3 || s.State != 42 {
		t.Fatalf("Load = %+v", s)
	}
	c.Publish(&stamped{Epoch: 4, State: 43})
	s = c.Load()
	if s.Epoch != 4 || s.State != 43 {
		t.Fatalf("latest snapshot not returned: %+v", s)
	}
}

// TestCellConcurrentReaders hammers one writer against many readers and
// checks every observed snapshot is internally consistent (state always
// equals its epoch here) and epochs never go backwards per reader.
func TestCellConcurrentReaders(t *testing.T) {
	var c Cell[stamped]
	const epochs = 5000
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < epochs; i++ {
				s := c.Load()
				if s == nil {
					continue
				}
				if s.State != s.Epoch {
					t.Errorf("torn snapshot: epoch %d state %d", s.Epoch, s.State)
					return
				}
				if s.Epoch < last {
					t.Errorf("epoch went backwards: %d after %d", s.Epoch, last)
					return
				}
				last = s.Epoch
			}
		}()
	}
	for e := int64(0); e < epochs; e++ {
		c.Publish(&stamped{Epoch: e, State: e})
	}
	wg.Wait()
}
