package nocdn

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"hpop/internal/auth"
)

// DefaultPoolSlots is how many precomputed wrapper variants the pool keeps
// per page. Clients hash onto a slot, so one page's audience spreads over
// this many distinct peer maps while any one client keeps hitting the same
// map (assignment stability) — the paper's wrapper-reuse observation taken
// to fleet scale: the origin builds O(pages·slots) maps per epoch instead
// of O(page views).
const DefaultPoolSlots = 16

// poolEntry is one precomputed wrapper map: the wrapper and its JSON
// encoding (both immutable, so /wrapper writes body on every serve instead
// of re-marshalling a map that is byte-stable for the entry's lifetime), the
// per-serve charges, one per distinct peer it names (each revalidated
// against health/suspension on every serve), the epochs it was built
// under, and when its keys are half way to expiry.
type poolEntry struct {
	w       *Wrapper
	body    []byte // json.Marshal(w), encoded once at build
	charges []charge
	content int64     // contentEpoch at build
	assign  int64     // assignEpoch at build
	renew   time.Time // build time + keyTTL/2
}

// wrapperPool holds the per-page slot arrays of precomputed wrapper maps.
type wrapperPool struct {
	mu    sync.RWMutex
	pages map[string][]*poolEntry
}

func newWrapperPool() *wrapperPool {
	return &wrapperPool{pages: make(map[string][]*poolEntry)}
}

func (p *wrapperPool) get(page string, slot int) *poolEntry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	arr := p.pages[page]
	if slot >= len(arr) {
		return nil
	}
	return arr[slot]
}

func (p *wrapperPool) put(page string, slot int, e *poolEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	arr := p.pages[page]
	if arr == nil {
		arr = make([]*poolEntry, DefaultPoolSlots)
		p.pages[page] = arr
	}
	arr[slot] = e
}

// filled lists the (page, slot) positions currently holding an entry.
func (p *wrapperPool) filled() map[string][]int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string][]int, len(p.pages))
	for page, arr := range p.pages {
		for slot, e := range arr {
			if e != nil {
				out[page] = append(out[page], slot)
			}
		}
	}
	return out
}

// AssignWrapper serves a wrapper for one page view from the precomputed
// pool: the client hashes onto one of the page's slots, and the slot's map
// is reused until an epoch moves under it (publish, fleet change, tick),
// its keys are half way to expiry, or one of its peers stops being
// servable. Assignment is a pure function of (page, client-slot, fleet), so
// the same client sees the same peer set across requests within an epoch —
// stable maps shrink wrapper churn and give the collusion audit a fixed
// expectation to check claims against.
// Every serve (pooled or fresh) charges the named peers' assigned-bytes
// ledger rows, so honest settlement of a widely shared map never looks
// like inflation.
func (o *Origin) AssignWrapper(page, client string) (*Wrapper, error) {
	e, err := o.assignEntry(page, client)
	if err != nil {
		return nil, err
	}
	return e.w, nil
}

// assignEntry is AssignWrapper returning the whole pool entry, so the
// /wrapper handler can write the entry's encoded bytes.
func (o *Origin) assignEntry(page, client string) (*poolEntry, error) {
	slot := int(fnv64a("slot|"+client) % uint64(DefaultPoolSlots))
	cep := o.contentEpoch.Load()
	aep := o.assignEpoch.Load()
	if e := o.pool.get(page, slot); e != nil &&
		e.content == cep && e.assign == aep && o.now().Before(e.renew) && o.entryServable(e) {
		o.ledger.assignCharges(e.charges)
		o.metrics.Inc("nocdn.origin.pool_hits")
		return e, nil
	}
	e, err := o.buildPoolEntry(page, slot)
	if err != nil {
		return nil, err
	}
	o.pool.put(page, slot, e)
	o.ledger.assignCharges(e.charges)
	return e, nil
}

// entryServable revalidates a pooled map on serve: every peer it names must
// still be healthy and unsuspended. This is what makes ejection effective
// within one tick — a pooled map naming an ejected peer is rebuilt on the
// very next serve, even before any epoch advances.
func (o *Origin) entryServable(e *poolEntry) bool {
	for _, c := range e.charges {
		if !o.ringServable(c.peerID) {
			return false
		}
	}
	return true
}

// ringServable is the peer filter, at assignment and again on every serve.
func (o *Origin) ringServable(id string) bool {
	return !o.ledger.isSuspended(id) && o.health.Healthy(id)
}

// buildPoolEntry computes one slot's wrapper map. Peers come off the
// consistent-hash ring keyed by (page, object path, slot) — deterministic
// across restarts, disrupted only ~1/N by membership changes — with
// bounded-load picking so no peer is handed more than ~loadFactor times its
// fair share of the page's objects; o.Policy shapes that pick (see
// pickBounded). If the ring has members but none pass the health gate, the
// gate drops (degraded) rather than refusing wrappers.
func (o *Origin) buildPoolEntry(page string, slot int) (*poolEntry, error) {
	paths, meta, err := o.pageMeta(page)
	if err != nil {
		return nil, err
	}
	cep := o.contentEpoch.Load()
	aep := o.assignEpoch.Load()
	if o.ring.size() == 0 {
		return nil, ErrNoPeers
	}
	build := o.wrapperGenerations.Add(1)
	o.metrics.Inc("nocdn.origin.pool_builds")
	buildStart := time.Now()
	defer func() {
		o.metrics.Observe("nocdn.origin.wrapper_seconds", time.Since(buildStart).Seconds())
	}()

	// Degraded fallback: if no registered peer passes the health gate,
	// assign from the full ring (the loader's breakers and origin fallback
	// still protect the page).
	servable := o.ringServable
	if _, anyOK := o.ring.lookup(page, servable); !anyOK {
		servable = nil
		o.metrics.Inc("nocdn.origin.wrapper_degraded")
	}

	// Bounded load: cap each peer's share of this map at ~loadFactor times
	// the fair share of its picks.
	picks := len(paths)
	if o.ChunkPeers > 1 {
		picks += len(paths) * (o.ChunkPeers - 1)
	}
	if o.Replicas > 0 {
		picks += len(paths) * o.Replicas
	}
	loadFactor := DefaultRingLoadFactor
	if o.Policy == SelectLoadAware {
		loadFactor = 1 // the tightest bound: no peer above the ceiling of the mean
	}
	capacity := 1
	if live := o.ring.size(); live > 0 {
		capacity = int(loadFactor*float64(picks)/float64(live)) + 1
	}
	loads := make(map[string]int)
	var rtt func(id string) float64
	if o.Policy == SelectProximity {
		rtt = func(id string) float64 {
			p, _ := o.registry.get(id)
			return p.rtt
		}
	}

	now := o.now()
	w := &Wrapper{
		Provider: o.Provider,
		Page:     page,
		Nonce:    auth.NewNonce(),
		IssuedAt: now,
		Loader:   "loader-v1",
	}
	// One charge per named peer, in the order the map first names them. A
	// peer's key budget is its charge: the bytes this map assigns it.
	var charges []charge
	chargePeer := func(id string, size int) {
		i := slices.IndexFunc(charges, func(c charge) bool { return c.peerID == id })
		if i < 0 {
			i = len(charges)
			charges = append(charges, charge{peerID: id})
		}
		charges[i].bytes += int64(size)
		charges[i].count++
	}
	peerURL := func(id string) string {
		p, _ := o.registry.get(id)
		return p.url
	}
	makeRef := func(path string) (ObjectRef, error) {
		m := meta[path]
		ref := ObjectRef{Path: path, Hash: m.hash, Size: m.size}
		key := page + "|" + path + "|" + strconv.Itoa(slot)
		if o.ChunkPeers > 1 && m.size >= o.ChunkThreshold && o.ring.size() > 1 {
			n := o.ChunkPeers
			chosen := o.ring.successors(key, n, servable)
			if len(chosen) == 0 {
				chosen = o.ring.successors(key, n, nil)
			}
			if len(chosen) == 0 {
				return ref, ErrNoPeers
			}
			chunk := (m.size + n - 1) / n
			for i := 0; i < n; i++ {
				off := i * chunk
				ln := chunk
				if off+ln > m.size {
					ln = m.size - off
				}
				id := chosen[i%len(chosen)]
				chargePeer(id, ln)
				ref.Chunks = append(ref.Chunks, ChunkRef{
					PeerID: id, PeerURL: peerURL(id), Offset: off, Length: ln,
				})
			}
			return ref, nil
		}
		primary, ok := o.ring.pickBounded(key, loads, capacity, servable, rtt)
		if !ok {
			return ref, ErrNoPeers
		}
		chargePeer(primary, m.size)
		ref.PeerID = primary
		ref.PeerURL = peerURL(primary)
		if o.Replicas > 0 && o.ring.size() > 1 {
			// Replicas: the ring successors after the primary. Each gets a
			// key and a byte assignment too, so a failover serve settles
			// exactly.
			reps := o.ring.successors(key, o.Replicas+1, func(id string) bool {
				return id != primary && (servable == nil || servable(id))
			})
			if len(reps) > o.Replicas {
				reps = reps[:o.Replicas]
			}
			for _, id := range reps {
				chargePeer(id, m.size)
				ref.Replicas = append(ref.Replicas, PeerRef{PeerID: id, PeerURL: peerURL(id)})
			}
		}
		return ref, nil
	}

	cref, err := makeRef(paths[0])
	if err != nil {
		return nil, err
	}
	w.Container = cref
	for _, path := range paths[1:] {
		ref, err := makeRef(path)
		if err != nil {
			return nil, err
		}
		w.Objects = append(w.Objects, ref)
	}
	w.Keys = make(map[string]PeerKey, len(charges))
	d := o.derivers.Get().(*keyDeriver)
	for _, c := range charges {
		w.Keys[c.peerID] = d.issue(c.peerID, now.Add(keyTTL), c.bytes, build)
	}
	o.derivers.Put(d)

	body, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("nocdn: wrapper encode: %w", err)
	}
	// Durable assignment floors before the map can serve: a restart between
	// the serve and the flush must not make its settlement look anomalous.
	o.journalKeysIssued(charges)
	return &poolEntry{w: w, body: body, charges: charges, content: cep, assign: aep, renew: now.Add(keyTTL / 2)}, nil
}

// EpochTick advances the assignment epoch and refreshes every pooled
// wrapper map under the new epoch — the control plane's heartbeat. Between
// ticks, serves are pool lookups; at the tick, maps are rebuilt once
// (picking up fleet changes, fresh keys — a key's ID names its build — and
// current health) so wrapper generation stays off the request hot path.
func (o *Origin) EpochTick() {
	ep := o.assignEpoch.Add(1)
	o.journalEpochTick(ep)
	o.metrics.Inc("nocdn.origin.epoch_ticks")
	for page, slots := range o.pool.filled() {
		for _, slot := range slots {
			e, err := o.buildPoolEntry(page, slot)
			if err != nil {
				continue // page unpublished or fleet empty: drop on next serve
			}
			o.pool.put(page, slot, e)
		}
	}
}
