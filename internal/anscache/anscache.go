// Package anscache implements the engine-level answer cache of the précis
// pipeline. The paper's motivating deployment is a web-accessible database
// answering many concurrent keyword searches (§1); popular queries repeat,
// and a précis answer is a pure function of the query tokens, the effective
// weights/constraints, and the database contents — so once computed it can
// be served again in O(1) until any of those inputs changes.
//
// The cache is a bounded LRU with optional TTL expiry, safe for concurrent
// use. It is value-agnostic: the engine stores *precis.Answer values keyed
// by a fingerprint of (normalized tokens, constraints, profile, overlay).
// Invalidation is wholesale (Purge) because any database or weight change
// can affect any answer.
package anscache

import (
	"container/list"
	"sync"
	"time"

	"precis/internal/obs"
)

// Stats are the cache's monotonic hit/miss counters plus its current size.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`     // LRU capacity evictions
	Expirations   uint64 `json:"expirations"`   // TTL lazy removals
	Invalidations uint64 `json:"invalidations"` // entries dropped by Purge
	Entries       int    `json:"entries"`       // current resident entries
}

// Counters are the cache's event counters. They are obs atomics so the
// same instruments can be registered in a metrics registry: Stats (the
// /api/stats source) and /metrics then read the very same memory and can
// never disagree. A cache built with plain New owns private counters;
// pass registry-backed ones through NewWithCounters to make cache totals
// survive cache resizes (the counters outlive any one Cache).
type Counters struct {
	Hits          *obs.Counter
	Misses        *obs.Counter
	Evictions     *obs.Counter
	Expirations   *obs.Counter
	Invalidations *obs.Counter
}

// NewCounters builds a private (unregistered) counter set.
func NewCounters() *Counters {
	return &Counters{
		Hits:          &obs.Counter{},
		Misses:        &obs.Counter{},
		Evictions:     &obs.Counter{},
		Expirations:   &obs.Counter{},
		Invalidations: &obs.Counter{},
	}
}

// entry is one cached answer with its admission time for TTL accounting.
type entry struct {
	key   string
	value any
	added time.Time
}

// Cache is a concurrency-safe LRU + TTL cache.
type Cache struct {
	mu  sync.Mutex
	max int
	ttl time.Duration
	now func() time.Time

	ll    *list.List // front = most recently used
	items map[string]*list.Element

	ctr *Counters // never nil
}

// New builds a cache holding at most max entries. max <= 0 defaults to 128.
// ttl <= 0 disables time-based expiry.
func New(max int, ttl time.Duration) *Cache {
	return NewWithCounters(max, ttl, nil)
}

// NewWithCounters is New with an externally owned counter set (typically
// registry-backed); nil ctr allocates a private set.
func NewWithCounters(max int, ttl time.Duration, ctr *Counters) *Cache {
	if max <= 0 {
		max = 128
	}
	if ctr == nil {
		ctr = NewCounters()
	}
	return &Cache{
		max:   max,
		ttl:   ttl,
		now:   time.Now,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
		ctr:   ctr,
	}
}

// AdoptCounters rebases the cache onto an externally owned counter set
// (typically registry-backed), folding the already-accumulated private
// totals into it so no events are lost. Instrumenting an engine after its
// cache warmed up therefore continues the same monotonic series.
func (c *Cache) AdoptCounters(ctr *Counters) {
	if ctr == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctr == ctr {
		return
	}
	ctr.Hits.Add(c.ctr.Hits.Load())
	ctr.Misses.Add(c.ctr.Misses.Load())
	ctr.Evictions.Add(c.ctr.Evictions.Load())
	ctr.Expirations.Add(c.ctr.Expirations.Load())
	ctr.Invalidations.Add(c.ctr.Invalidations.Load())
	c.ctr = ctr
}

// SetClock replaces the cache's time source (tests drive TTL expiry with a
// fake clock).
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Get returns the cached value for key and whether it was present and
// fresh. An entry past its TTL is removed and counted as an expiration
// (plus a miss).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.ctr.Misses.Inc()
		return nil, false
	}
	en := el.Value.(*entry)
	if c.ttl > 0 && c.now().Sub(en.added) > c.ttl {
		c.removeLocked(el)
		c.ctr.Expirations.Inc()
		c.ctr.Misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.ctr.Hits.Inc()
	return en.value, true
}

// Put stores value under key, refreshing the entry (and its TTL) if it
// already exists and evicting the least-recently-used entry on overflow.
func (c *Cache) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		en := el.Value.(*entry)
		en.value = value
		en.added = c.now()
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, value: value, added: c.now()})
	c.items[key] = el
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		if oldest != nil {
			c.removeLocked(oldest)
			c.ctr.Evictions.Inc()
		}
	}
}

// Purge drops every entry — the invalidation hook for database mutations,
// weight changes, and explicit cache resets.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr.Invalidations.Add(uint64(c.ll.Len()))
	c.ll.Init()
	clear(c.items) // the map keeps its room: a purge per write allocates nothing
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the resident keys from most to least recently used (test
// introspection of the eviction order).
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Stats snapshots the counters. With registry-backed counters the same
// atomics feed /metrics, so the two views cannot diverge.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.ctr.Hits.Load(),
		Misses:        c.ctr.Misses.Load(),
		Evictions:     c.ctr.Evictions.Load(),
		Expirations:   c.ctr.Expirations.Load(),
		Invalidations: c.ctr.Invalidations.Load(),
		Entries:       c.ll.Len(),
	}
}

// removeLocked unlinks an element; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*entry).key)
}
