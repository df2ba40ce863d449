package nocdn

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
)

// assignment is the origin's wrapper part. poolMu guards the pooled
// wrapper maps, one slot array per page. The peer directory and the
// consistent-hash ring that assigns clients' objects to peers lock
// themselves; a wrapper serve takes no origin-wide lock.
type assignment struct {
	poolMu sync.RWMutex
	pool   map[string][]*poolEntry

	registry *registry
	ring     *hashRing

	// assignEpoch advances whenever the assignable peer set changes
	// (registration, ejection, readmission, anomaly suspension) and on
	// every EpochTick. Pooled wrapper maps are valid for one assignEpoch.
	assignEpoch atomic.Int64
	// wrapperGenerations counts actual wrapper builds (vs pooled serves) for
	// the reuse experiment and the control-plane sweep's hot-path assertion.
	wrapperGenerations atomic.Int64
	// wrapperBytes counts the wrapper bytes served, half of the origin's
	// bytes out that E4 reports.
	wrapperBytes atomic.Int64

	// epochLoop runs EpochTick on the daemon's -epoch-tick cadence.
	epochLoop loop
}

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

func (a *assignment) poolGet(page string, slot int) *poolEntry {
	a.poolMu.RLock()
	defer a.poolMu.RUnlock()
	arr := a.pool[page]
	if slot >= len(arr) {
		return nil
	}
	return arr[slot]
}

func (a *assignment) poolPut(page string, slot int, e *poolEntry) {
	a.poolMu.Lock()
	defer a.poolMu.Unlock()
	arr := a.pool[page]
	if arr == nil {
		arr = make([]*poolEntry, DefaultPoolSlots)
		a.pool[page] = arr
	}
	arr[slot] = e
}

// poolFilled lists the (page, slot) positions currently holding an entry.
func (a *assignment) poolFilled() map[string][]int {
	a.poolMu.RLock()
	defer a.poolMu.RUnlock()
	out := make(map[string][]int, len(a.pool))
	for page, arr := range a.pool {
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
	if e := o.poolGet(page, slot); e != nil &&
		e.content == cep && e.assign == aep && o.now().Before(e.renew) && o.entryServable(e) {
		o.ledger.assignCharges(e.charges)
		o.metrics.Inc("nocdn.origin.pool_hits")
		return e, nil
	}
	e, err := o.buildPoolEntry(page, slot)
	if err != nil {
		return nil, err
	}
	o.poolPut(page, slot, e)
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
	o.walWait(o.journalAppend(walEpochTick, walEpochTickRec{AssignEpoch: ep}))
	o.metrics.Inc("nocdn.origin.epoch_ticks")
	for page, slots := range o.poolFilled() {
		for _, slot := range slots {
			e, err := o.buildPoolEntry(page, slot)
			if err != nil {
				continue // page unpublished or fleet empty: drop on next serve
			}
			o.poolPut(page, slot, e)
		}
	}
}

// RegisterPeer recruits a peer: directory row, health enrollment, and a set
// of virtual nodes on the assignment ring. Fleet changes advance the
// assignment epoch so pooled wrapper maps refresh to include (or drop) the
// peer on their next serve. An ID that fails CheckName is refused.
func (o *Origin) RegisterPeer(id, url string, rttMillis float64) error {
	if err := CheckName(id); err != nil {
		return err
	}
	o.health.Register(id)
	o.registry.add(id, url, rttMillis)
	o.ring.add(id)
	ep := o.assignEpoch.Add(1)
	// Apply-then-journal: every effect above replays idempotently, so a
	// crash between apply and append loses nothing that was acknowledged.
	o.walWait(o.journalAppend(walPeerRegister, walPeerRegisterRec{ID: id, URL: url, RTT: rttMillis, AssignEpoch: ep}))
	return nil
}

// Peers returns a snapshot of the registry: directory rows with the mutable
// Assigned/Suspended state filled from the ledger.
func (o *Origin) Peers() []PeerInfo {
	static := o.registry.snapshot()
	out := make([]PeerInfo, len(static))
	for i, p := range static {
		row := o.ledger.row(p.id)
		out[i] = PeerInfo{
			ID:        p.id,
			URL:       p.url,
			RTTMillis: p.rtt,
			Assigned:  int(row.AssignCount),
			Suspended: row.Suspended,
		}
	}
	return out
}

// WrapperGenerations returns how many wrappers were actually built (pooled
// serves do not count) — the savings metric for wrapper reuse and the
// control-plane sweep's hot-path assertion.
func (o *Origin) WrapperGenerations() int64 { return o.wrapperGenerations.Load() }

// WrapperBytes returns bytes served as wrapper pages.
func (o *Origin) WrapperBytes() int64 { return o.wrapperBytes.Load() }

// invalidateWrappers advances the assignment epoch so pooled maps rebuild
// on their next serve.
func (o *Origin) invalidateWrappers() { o.assignEpoch.Add(1) }

func (o *Origin) handleWrapper(w http.ResponseWriter, r *http.Request) {
	sp := o.tracer.StartRemote("nocdn.origin", "wrapper", hpop.ExtractTraceparent(r.Header))
	defer sp.End()
	q := r.URL.Query()
	page := q.Get("page")
	client := q.Get("client")
	sp.SetLabel("page", page)
	if client == "" {
		// An anonymous view is its remote host ("" when unparsable).
		client, _, _ = net.SplitHostPort(r.RemoteAddr)
	}
	sp.SetLabel("client", client)
	e, err := o.assignEntry(page, client)
	if err != nil {
		sp.SetError(err)
		status := http.StatusNotFound
		if errors.Is(err, ErrNoPeers) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	o.wrapperBytes.Add(int64(len(e.body)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
}

// registry is the origin's peer directory: registration-ordered for Peers
// and probe sampling, indexed by ID for the ring's id→URL resolution. Static
// fields only (ID, URL, RTT) — the mutable settlement state lives in the
// sharded ledger.
type registry struct {
	mu   sync.RWMutex
	list []peerStatic
	byID map[string]int
}

type peerStatic struct {
	id  string
	url string
	rtt float64
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]int)}
}

// add registers a peer (re-registering updates the URL/RTT in place).
func (r *registry) add(id, url string, rtt float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byID[id]; ok {
		r.list[i].url, r.list[i].rtt = url, rtt
		return
	}
	r.byID[id] = len(r.list)
	r.list = append(r.list, peerStatic{id: id, url: url, rtt: rtt})
}

// get resolves one peer.
func (r *registry) get(id string) (peerStatic, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.byID[id]
	if !ok {
		return peerStatic{}, false
	}
	return r.list[i], true
}

// snapshot copies the directory in registration order.
func (r *registry) snapshot() []peerStatic {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]peerStatic(nil), r.list...)
}

// count returns the registered-peer count.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.list)
}

// sample returns up to k peers picked by the caller's index source (rnd
// returns a value in [0, n)), deduplicated — a probe sample, not a
// full scan.
func (r *registry) sample(k int, rnd func(n int) int) []peerStatic {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.list)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		return append([]peerStatic(nil), r.list...)
	}
	seen := make(map[int]bool, k)
	out := make([]peerStatic, 0, k)
	for len(out) < k {
		i := rnd(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, r.list[i])
	}
	return out
}
