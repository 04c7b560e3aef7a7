package service

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache of completed run results keyed by the
// canonical spec hash. A hit returns the exact *Result pointer that was
// stored, so duplicate submissions observe bit-identical results
// (results are treated as immutable once published).
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key string
	res *Result
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached result for key, marking it most recently used.
// It counts the lookup as a hit or a miss unless recheck says that the
// caller already counted one for this key.
func (c *resultCache) Get(key string, recheck bool) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	switch {
	case recheck:
	case ok:
		c.hits++
	default:
		c.misses++
	}
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores a report under key, evicting the least recently used entry
// when the cache is full. A zero or negative capacity disables caching.
func (c *resultCache) Put(key string, res *Result) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// Stats returns the hit/miss counters and current size.
func (c *resultCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
