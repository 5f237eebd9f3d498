package serve

import (
	"container/list"
	"sync"
	"time"

	"factordb/internal/metrics"
)

// resultCache is an LRU cache of completed query results with a TTL.
// Marginal estimates never become wrong the way stale deterministic
// results do — further walking only refines them — so the TTL is a
// freshness bound for repeated identical queries (dashboards, retries),
// not a correctness mechanism.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ttl       time.Duration
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> element holding *cacheEntry
	evictions *metrics.Counter         // optional; LRU overflow + TTL expiry
}

type cacheEntry struct {
	key string
	res *Result
	at  time.Time
}

// newResultCache returns a cache with the given capacity; capacity < 1
// yields a disabled cache (all gets miss, puts are dropped).
func newResultCache(capacity int, ttl time.Duration, evictions *metrics.Counter) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{
		cap:       capacity,
		ttl:       ttl,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		evictions: evictions,
	}
}

// evicted counts one removed entry (nil counter = untracked, e.g. tests).
func (c *resultCache) evicted() {
	if c.evictions != nil {
		c.evictions.Inc()
	}
}

// get returns a defensive copy of the cached result: callers routinely
// sort or otherwise mutate answer slices (the ranked-query path reorders
// them), and a shallow alias here would corrupt the entry for every
// later hit.
func (c *resultCache) get(key string, now time.Time) (*Result, bool) {
	if c.cap < 1 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if now.Sub(ent.at) > c.ttl {
		c.ll.Remove(el)
		delete(c.items, key)
		c.evicted()
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.res.clone(), true
}

// put stores a private copy of res, for the same aliasing reason get
// copies on the way out: the caller keeps its result and may mutate it.
func (c *resultCache) put(key string, res *Result, now time.Time) {
	if c.cap < 1 {
		return
	}
	res = res.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		el.Value.(*cacheEntry).at = now
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, at: now})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evicted()
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
