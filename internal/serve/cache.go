package serve

import (
	"container/list"
	"sync"
)

// resultCache is a content-addressed LRU byte cache for rendered job
// results. Keys are JobSpec digests, so two submissions that resolve to
// the same simulation share one entry. Eviction is by total byte
// budget, least-recently-used first; a single value larger than the
// whole budget is simply not retained.
type resultCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // of *cacheEntry; front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	val []byte
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached bytes for key and marks it most recently used.
// Callers must not mutate the returned slice.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts (or refreshes) key and evicts LRU entries beyond the byte
// budget.
func (c *resultCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.used += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
		c.used += int64(len(val))
	}
	for c.used > c.budget && c.order.Len() > 0 {
		el := c.order.Back()
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.items, e.key)
		c.used -= int64(len(e.val))
		c.evictions++
	}
}

// cacheStats is a consistent snapshot of the cache counters.
type cacheStats struct {
	Entries               int
	Bytes                 int64
	Hits, Misses, Evicted int64
}

func (c *resultCache) Stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries: c.order.Len(),
		Bytes:   c.used,
		Hits:    c.hits,
		Misses:  c.misses,
		Evicted: c.evictions,
	}
}
