package serve

import (
	"container/list"
	"sync"
)

// lruCache is the fingerprint-keyed result cache: a plain mutex-guarded
// LRU over completed outcomes. Simulation results are small (a result
// struct and its JSON encoding), so the cache is bounded by entry count,
// not bytes. Only successful outcomes are inserted — errors, including
// cancellation and budget aborts, always recompute.
type lruCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

type lruEntry struct {
	key string
	out outcome
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, m: make(map[string]*list.Element, capacity), ll: list.New()}
}

// get returns the cached outcome for key, promoting it to most recently
// used.
func (c *lruCache) get(key string) (outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return outcome{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).out, true
}

// add inserts (or refreshes) key, evicting the least recently used entry
// when over capacity.
func (c *lruCache) add(key string, out outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, out: out})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
