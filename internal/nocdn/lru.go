package nocdn

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// cacheShards is the shard count of the peer cache; a power of two so the
// shard pick is a mask.
const cacheShards = 16

// shardedLRU spreads a byteLRU across cacheShards independently locked
// shards so concurrent lookups on different keys never contend. Stored
// slices are shared with callers and immutable by contract: a serve only ever
// reads or sub-slices them (writeOutcome). Each entry carries its object's
// HTTP metadata, so one lookup answers both.
type shardedLRU struct {
	shards [cacheShards]lruShard
}

type lruShard struct {
	mu  sync.Mutex
	lru *byteLRU
}

func newShardedLRU(capacity int) *shardedLRU {
	s := &shardedLRU{}
	for i := range s.shards {
		s.shards[i].lru = newByteLRU(max(1, capacity/cacheShards))
	}
	return s
}

// shardFor hashes key with FNV-1a and masks into the shard array.
func (s *shardedLRU) shardFor(key string) *lruShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &s.shards[h&(cacheShards-1)]
}

func (s *shardedLRU) get(key string) ([]byte, *entryMeta, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.get(key)
}

// put stores the entry and returns whatever the shard evicted to make room,
// collected outside the shard lock's critical path so callers can spill
// evictions to the disk tier without holding up that shard's lookups.
func (s *shardedLRU) put(key string, data []byte, sum [sha256.Size]byte, meta *entryMeta) []lruEntry {
	sh := s.shardFor(key)
	sh.mu.Lock()
	evicted := sh.lru.put(key, data, sum, meta)
	sh.mu.Unlock()
	return evicted
}

// refresh swaps key's metadata old for m (a 304), provided the entry still
// carries old: an entry refilled since keeps its own.
func (s *shardedLRU) refresh(key string, old, m *entryMeta) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.lru.items[key]; ok {
		if entry := el.Value.(*lruEntry); entry.meta == old {
			entry.meta = m
		}
	}
	sh.mu.Unlock()
}

// remove drops key from its shard (cache invalidation: no-store responses,
// hash-epoch supersession).
func (s *shardedLRU) remove(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.lru.remove(key)
	sh.mu.Unlock()
}

// maxObjectBytes is the largest object the memory tier can hold (one
// shard's full capacity); anything bigger lives only on the disk tier.
func (s *shardedLRU) maxObjectBytes() int {
	return s.shards[0].lru.capacity
}

// byteLRU is a byte-capacity-bounded LRU cache. It is not safe for
// concurrent use (shardedLRU adds locking) and hands out its stored slices
// directly: callers must treat them as immutable.
type byteLRU struct {
	capacity int
	used     int
	order    *list.List // front = most recent; values are *lruEntry
	items    map[string]*list.Element
}

type lruEntry struct {
	key  string
	data []byte
	sum  [sha256.Size]byte // SHA-256 of data, carried so a spill need not rehash
	meta *entryMeta
}

func newByteLRU(capacity int) *byteLRU {
	return &byteLRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *byteLRU) get(key string) ([]byte, *entryMeta, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	entry := el.Value.(*lruEntry)
	return entry.data, entry.meta, true
}

// remove drops key if present (no-op otherwise).
func (c *byteLRU) remove(key string) {
	el, ok := c.items[key]
	if !ok {
		return
	}
	entry := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, key)
	c.used -= len(entry.data)
}

// put stores the entry, returning the entries evicted to stay within
// capacity (the two-tier cache spills these to disk).
func (c *byteLRU) put(key string, data []byte, sum [sha256.Size]byte, meta *entryMeta) []lruEntry {
	if len(data) > c.capacity {
		return nil // never cache objects larger than the whole cache
	}
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*lruEntry)
		c.used += len(data) - len(entry.data)
		entry.data, entry.sum, entry.meta = data, sum, meta
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&lruEntry{key: key, data: data, sum: sum, meta: meta})
		c.items[key] = el
		c.used += len(data)
	}
	var evicted []lruEntry
	for c.used > c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		entry := oldest.Value.(*lruEntry)
		c.order.Remove(oldest)
		delete(c.items, entry.key)
		c.used -= len(entry.data)
		evicted = append(evicted, *entry)
	}
	return evicted
}
