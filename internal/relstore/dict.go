package relstore

import (
	"sync"
	"sync/atomic"
)

// dict is the string dictionary of one STRING column lineage: the column
// of a new relation, every clone of it and every copy made on write store
// codes into the same one. It is only ever appended to, so a code, once
// issued, means the same string in every world for good, and sharing it
// costs no world a copy.
//
// It grows only on writes (Insert, SetCol): reads, ScanWhere included,
// look codes up without interning, so a stream of queries naming strings
// no row holds cannot grow it. Strings that no live row uses any more stay
// until the world is reloaded from a snapshot, which re-interns only what
// its rows hold.
//
// Writers, from any number of worlds, are serialized by mu. Readers index
// the published table without a lock: an append either fits the backing
// array, where it fills a slot no published table reaches, or moves to a
// new one, and the longer table is published before its code is stored
// in any row. Looking a string up takes no lock either when it is in the
// published read map — for a chain flipping labels interned at load,
// always — and only strings issued since that map was built are looked up
// under mu, in recent. Once recent is as large as the read map, the two
// are merged into a new read map, so the merges cost amortized O(1) per
// string.
type dict struct {
	mu     sync.Mutex
	recent map[string]uint32 // guarded by mu: codes issued since read was built
	read   atomic.Pointer[map[string]uint32]
	table  atomic.Pointer[[]string]
}

func newDict() *dict {
	d := &dict{recent: make(map[string]uint32)}
	d.read.Store(new(map[string]uint32))
	d.table.Store(new([]string))
	return d
}

// strs returns the published table, indexed by code.
func (d *dict) strs() []string { return *d.table.Load() }

// lookup returns the code of s, if it has one. It never interns.
func (d *dict) lookup(s string) (uint32, bool) {
	if c, ok := (*d.read.Load())[s]; ok {
		return c, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.find(s)
}

// intern returns the code of s, issuing the next one when s has none. A
// string already in the dictionary costs a map probe and no allocation.
func (d *dict) intern(s string) uint32 {
	if c, ok := (*d.read.Load())[s]; ok {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.add(s)
}

// internAll interns strs in order and publishes all of them in the read
// map, so no later lookup of one takes the lock.
func (d *dict) internAll(strs []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range strs {
		d.add(s)
	}
	if len(d.recent) > 0 {
		d.merge()
	}
}

// find looks s up in both maps; the read map is searched again because a
// merge may have moved s there since the caller last loaded it. d.mu is
// held.
func (d *dict) find(s string) (uint32, bool) {
	if c, ok := (*d.read.Load())[s]; ok {
		return c, true
	}
	c, ok := d.recent[s]
	return c, ok
}

// add is intern with d.mu held.
func (d *dict) add(s string) uint32 {
	if c, ok := d.find(s); ok {
		return c
	}
	t := append(d.strs(), s)
	c := uint32(len(t) - 1)
	d.table.Store(&t)
	d.recent[s] = c
	if len(d.recent) >= len(*d.read.Load()) {
		d.merge()
	}
	return c
}

// merge publishes a read map holding every code and empties recent. d.mu
// is held.
func (d *dict) merge() {
	read := *d.read.Load()
	merged := make(map[string]uint32, len(read)+len(d.recent))
	for k, v := range read {
		merged[k] = v
	}
	for k, v := range d.recent {
		merged[k] = v
	}
	d.read.Store(&merged)
	d.recent = make(map[string]uint32)
}
