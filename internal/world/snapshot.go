package world

import "sync/atomic"

// Cell is a single-writer, many-reader publication point for immutable
// states. The walking goroutine that owns a world publishes a fresh state
// at an epoch boundary, after a Drain, the state carrying the epoch it
// belongs to; concurrent
// readers always observe a complete state from one epoch boundary — never
// a torn intermediate — while the chain keeps walking. Publication is a
// single atomic store of the caller's own pointer, so the walk never
// blocks on readers and publishing allocates nothing.
type Cell[T any] struct {
	p atomic.Pointer[T]
}

// Publish installs a new state. Only one goroutine may publish; the state
// must not be mutated afterwards.
func (c *Cell[T]) Publish(state *T) { c.p.Store(state) }

// Load returns the most recently published state, or nil if nothing has
// been published yet.
func (c *Cell[T]) Load() *T { return c.p.Load() }
