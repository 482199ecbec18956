package service

import (
	"container/list"
	"sync"

	"odeproto/internal/obs"
)

// cacheBytesPerEntry is the byte allowance each unit of Config.CacheSize
// brings: the LRU's budget is CacheSize × 256 KiB (64 MiB at the default 256)
// of stored bytes — a large result counts at its gzip member — so one flag
// bounds both how many results and how many result bytes the process holds.
const cacheBytesPerEntry = 256 << 10

// resultCache is the content-addressed result store and the only in-memory
// owner of result bytes: an LRU map from canonical request hash to stored
// blob, bounded by an entry count and a byte budget. Jobs hold keys; every
// read resolves the key here and, past the LRU, in the durable store. Blobs
// are immutable — a reader that holds one keeps it alive past its eviction —
// which is sound because sweep output is byte-identical for a fixed key (the
// key includes the seed derivation and the shard count K).
type resultCache struct {
	mu       sync.Mutex
	max      int   // entries
	maxBytes int64 // sum of the entries' sizes
	bytes    int64
	order    *list.List // of *resultBlob; front = most recently used
	entries  map[string]*list.Element

	// The counters live in the obs registry (odeproto_cache_hits_total,
	// _misses_total, _evictions_total).
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

func newResultCache(max int, hits, misses, evictions *obs.Counter) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:       max,
		maxBytes:  int64(max) * cacheBytesPerEntry,
		order:     list.New(),
		entries:   make(map[string]*list.Element),
		hits:      hits,
		misses:    misses,
		evictions: evictions,
	}
}

// get returns the cached blob for key, marking it most recently used and
// counting the lookup in the hit/miss stats.
func (c *resultCache) get(key string) (*resultBlob, bool) {
	blob, ok := c.peek(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return blob, ok
}

// peek is get without touching the hit/miss counters, for every lookup
// that is not a submitted spec meeting the cache: the worker's at-pickup
// re-check (it retries a miss Submit already counted), GET
// /v1/results/{key}, and a done job resolving its bytes.
func (c *resultCache) peek(key string) (*resultBlob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*resultBlob), true
}

// contains reports presence without touching recency or the counters, for
// the cluster's local-availability probe.
func (c *resultCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// put inserts (or replaces) a blob as the most recently used entry and
// evicts from the other end past either bound. The newest entry is always
// admitted, so a result larger than the whole budget is still readable
// until the next one arrives.
func (c *resultCache) put(blob *resultBlob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[blob.key]; ok {
		c.bytes -= int64(len(el.Value.(*resultBlob).stored))
		el.Value = blob
		c.order.MoveToFront(el)
	} else {
		c.entries[blob.key] = c.order.PushFront(blob)
	}
	c.bytes += int64(len(blob.stored))
	c.evict()
}

// putOldest admits blob as the least recently used entry if it fits inside
// both bounds, and reports whether it did: startup warming loads results
// newest first and stops at the first that does not fit.
func (c *resultCache) putOldest(blob *resultBlob) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[blob.key]; ok {
		return true
	}
	if c.order.Len() >= c.max || c.bytes+int64(len(blob.stored)) > c.maxBytes {
		return false
	}
	c.entries[blob.key] = c.order.PushBack(blob)
	c.bytes += int64(len(blob.stored))
	return true
}

// evict drops least recently used entries until both bounds hold or one
// entry is left; callers hold c.mu.
func (c *resultCache) evict() {
	for c.order.Len() > 1 && (c.order.Len() > c.max || c.bytes > c.maxBytes) {
		blob := c.order.Remove(c.order.Back()).(*resultBlob)
		delete(c.entries, blob.key)
		c.bytes -= int64(len(blob.stored))
		c.evictions.Inc()
	}
}

// usage reports the entries and the bytes the LRU holds.
func (c *resultCache) usage() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
