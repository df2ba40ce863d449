package nocdn

import (
	"sort"
	"strconv"
	"sync"
)

// Ring defaults.
const (
	// DefaultRingVnodes is how many virtual nodes each peer contributes to
	// the assignment ring. More vnodes smooth the per-peer arc lengths at
	// the cost of ring memory (16 bytes per point); bounded-load picking
	// does the rest of the balancing, so a moderate count suffices even for
	// very large fleets.
	DefaultRingVnodes = 64
	// DefaultRingLoadFactor caps any peer's share of one wrapper map at
	// this multiple of the mean ("consistent hashing with bounded loads"):
	// assignments that would overfill a peer walk clockwise to the next
	// candidate instead.
	DefaultRingLoadFactor = 1.25
)

// fnv64a is the ring's hash primitive: deterministic across processes and
// restarts (no per-process seed), so the same fleet always yields the same
// assignment table.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ringPoint is one virtual node: the hash position and the index of its
// owner in the members slice (small and index-based so a million-peer ring
// doesn't hold a string per vnode).
type ringPoint struct {
	hash uint64
	idx  int32
}

// hashRing is a consistent-hash ring with virtual nodes: client→peer
// assignment is a pure function of the member set, so wrapper maps are
// stable across requests and restarts, and adding or removing one peer
// remaps only ~1/N of keys instead of reshuffling everything the way
// per-request random selection does.
//
// Mutation (add/remove) marks the point list dirty; the sorted order is
// rebuilt lazily on the next lookup, so bulk registration of a large fleet
// pays one sort, not one per peer.
type hashRing struct {
	vnodes int

	mu      sync.RWMutex
	members []string // index -> id ("" = tombstone)
	byID    map[string]int32
	points  []ringPoint
	dirty   bool
	live    int
}

// newRing creates an empty ring (vnodes <= 0 applies DefaultRingVnodes).
func newRing(vnodes int) *hashRing {
	if vnodes <= 0 {
		vnodes = DefaultRingVnodes
	}
	return &hashRing{vnodes: vnodes, byID: make(map[string]int32)}
}

// vnodeHash positions one of a member's virtual nodes.
func vnodeHash(id string, v int) uint64 {
	return fnv64a(id + "#" + strconv.Itoa(v))
}

// add inserts a member (no-op when already present).
func (r *hashRing) add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; ok {
		return
	}
	idx := int32(len(r.members))
	r.members = append(r.members, id)
	r.byID[id] = idx
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(id, v), idx: idx})
	}
	r.live++
	r.dirty = true
}

// remove drops a member and its virtual nodes (no-op when absent).
func (r *hashRing) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.byID[id]
	if !ok {
		return
	}
	delete(r.byID, id)
	r.members[idx] = ""
	keep := r.points[:0]
	for _, p := range r.points {
		if p.idx != idx {
			keep = append(keep, p)
		}
	}
	r.points = keep
	r.live--
}

// size returns the live member count.
func (r *hashRing) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live
}

// ensureSorted rebuilds the sorted point order if dirty; callers must hold
// the write lock or upgrade around it. Ties (hash collisions between
// distinct vnodes) break by member ID so the order is independent of
// registration order.
func (r *hashRing) ensureSorted() {
	r.mu.RLock()
	dirty := r.dirty
	r.mu.RUnlock()
	if !dirty {
		return
	}
	r.mu.Lock()
	if r.dirty {
		sort.Slice(r.points, func(i, j int) bool {
			if r.points[i].hash != r.points[j].hash {
				return r.points[i].hash < r.points[j].hash
			}
			return r.members[r.points[i].idx] < r.members[r.points[j].idx]
		})
		r.dirty = false
	}
	r.mu.Unlock()
}

// walk visits distinct live members clockwise from key's ring position,
// calling fn until it returns false or every member has been seen.
func (r *hashRing) walk(key string, fn func(id string) bool) {
	r.ensureSorted()
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return
	}
	h := fnv64a(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int32]bool)
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if seen[p.idx] {
			continue
		}
		seen[p.idx] = true
		id := r.members[p.idx]
		if id == "" {
			continue // tombstone
		}
		if !fn(id) {
			return
		}
	}
}

// lookup returns the first member clockwise of key passing ok (nil ok
// accepts everyone).
func (r *hashRing) lookup(key string, ok func(id string) bool) (string, bool) {
	var out string
	r.walk(key, func(id string) bool {
		if ok == nil || ok(id) {
			out = id
			return false
		}
		return true
	})
	return out, out != ""
}

// successors returns up to n distinct members clockwise of key passing ok.
func (r *hashRing) successors(key string, n int, ok func(id string) bool) []string {
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	r.walk(key, func(id string) bool {
		if ok == nil || ok(id) {
			out = append(out, id)
		}
		return len(out) < n
	})
	return out
}

// proximityChoices is how many bounded-load-eligible successors a
// proximity pick compares: enough to pull assignments toward near peers,
// few enough that the ring (not the RTT table) still decides most of the map.
const proximityChoices = 4

// pickBounded is the bounded-load variant: the first member clockwise of
// key passing ok whose current load (in the caller's loads map) is below
// cap — or, when rtt is non-nil, the lowest-RTT of the first
// proximityChoices such members. If every eligible member is at capacity
// the plain ring choice wins (the bound shapes balance, it never refuses
// service). The chosen member's load is incremented.
func (r *hashRing) pickBounded(key string, loads map[string]int, cap int, ok func(id string) bool, rtt func(id string) float64) (string, bool) {
	var first, chosen string
	seen := 0
	r.walk(key, func(id string) bool {
		if ok != nil && !ok(id) {
			return true
		}
		if first == "" {
			first = id
		}
		if loads[id] >= cap {
			return true
		}
		if chosen == "" || rtt(id) < rtt(chosen) {
			chosen = id
		}
		seen++
		return rtt != nil && seen < proximityChoices
	})
	if chosen == "" {
		chosen = first // every candidate at capacity: take the ring choice
	}
	if chosen == "" {
		return "", false
	}
	loads[chosen]++
	return chosen, true
}
