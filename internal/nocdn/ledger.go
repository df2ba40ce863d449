package nocdn

import (
	"sort"
	"sync"
)

// ledgerShardCount shards the settlement ledger and key table by hash; a
// power of two so the shard pick is a mask. Settlement for different peers
// (and key lookups for different wrappers) never serialize against each
// other, and batch settlement takes each involved shard's lock once per
// batch instead of once per record.
const ledgerShardCount = 32

// charge is one pending ledger mutation: bytes the origin expects to flow
// through a peer (wrapper serves) or credits from settled records.
type charge struct {
	peerID string
	bytes  int64
}

// ledgerShard is one lock's worth of per-peer settlement state.
type ledgerShard struct {
	mu          sync.RWMutex
	credited    map[string]int64
	assigned    map[string]int64
	rejected    map[string]int64
	assignCount map[string]int64
	suspended   map[string]bool
}

// keyShard is one lock's worth of the short-term key table.
type keyShard struct {
	mu       sync.RWMutex
	keyPeer  map[string]string
	keyBytes map[string]int64
}

// ledger is the origin's sharded settlement state: which peer each key was
// issued for, how many bytes were assigned under it, and each peer's
// credited/assigned/rejected/suspended row. It replaces the seed's single
// registry mutex so a million-peer fleet's settlement and wrapper charging
// scale with shard count, not fleet size.
type ledger struct {
	shards    [ledgerShardCount]ledgerShard
	keyShards [ledgerShardCount]keyShard
}

func newLedger() *ledger {
	l := &ledger{}
	for i := range l.shards {
		l.shards[i] = ledgerShard{
			credited:    make(map[string]int64),
			assigned:    make(map[string]int64),
			rejected:    make(map[string]int64),
			assignCount: make(map[string]int64),
			suspended:   make(map[string]bool),
		}
	}
	for i := range l.keyShards {
		l.keyShards[i] = keyShard{
			keyPeer:  make(map[string]string),
			keyBytes: make(map[string]int64),
		}
	}
	return l
}

func (l *ledger) shardFor(peerID string) *ledgerShard {
	return &l.shards[fnv64a(peerID)&(ledgerShardCount-1)]
}

func (l *ledger) keyShardFor(keyID string) *keyShard {
	return &l.keyShards[fnv64a(keyID)&(ledgerShardCount-1)]
}

// groupByShard splits per-peer deltas into per-shard groups so the caller
// can apply each group under one lock acquisition.
func (l *ledger) groupByShard(deltas map[string]int64) map[*ledgerShard]map[string]int64 {
	groups := make(map[*ledgerShard]map[string]int64)
	for id, n := range deltas {
		sh := l.shardFor(id)
		g := groups[sh]
		if g == nil {
			g = make(map[string]int64)
			groups[sh] = g
		}
		g[id] += n
	}
	return groups
}

// creditBatch adds settled bytes per peer — one lock acquisition per
// involved shard, however many records the batch carried.
func (l *ledger) creditBatch(deltas map[string]int64) {
	for sh, g := range l.groupByShard(deltas) {
		sh.mu.Lock()
		for id, n := range g {
			sh.credited[id] += n
		}
		sh.mu.Unlock()
	}
}

// rejectBatch adds rejected-record counts per peer, batched like credits.
func (l *ledger) rejectBatch(counts map[string]int64) {
	for sh, g := range l.groupByShard(counts) {
		sh.mu.Lock()
		for id, n := range g {
			sh.rejected[id] += n
		}
		sh.mu.Unlock()
	}
}

// assignCharges records wrapper-serve expectations: per-peer assigned bytes
// plus the outstanding-assignment load signal, batched per shard.
func (l *ledger) assignCharges(charges []charge) {
	if len(charges) == 0 {
		return
	}
	bytes := make(map[string]int64, len(charges))
	count := make(map[string]int64, len(charges))
	for _, c := range charges {
		bytes[c.peerID] += c.bytes
		count[c.peerID]++
	}
	for sh, g := range l.groupByShard(bytes) {
		sh.mu.Lock()
		for id, n := range g {
			sh.assigned[id] += n
			sh.assignCount[id] += count[id]
		}
		sh.mu.Unlock()
	}
}

// row reads one peer's ledger row.
func (l *ledger) row(peerID string) (credited, assigned, rejected int64, suspended bool) {
	sh := l.shardFor(peerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.credited[peerID], sh.assigned[peerID], sh.rejected[peerID], sh.suspended[peerID]
}

// assignedCount reads the outstanding-assignment load signal.
func (l *ledger) assignedCount(peerID string) int64 {
	sh := l.shardFor(peerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.assignCount[peerID]
}

// suspend pulls a peer from rotation.
func (l *ledger) suspend(peerID string) {
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	sh.suspended[peerID] = true
	sh.mu.Unlock()
}

// isSuspended reports whether a peer is out of rotation.
func (l *ledger) isSuspended(peerID string) bool {
	sh := l.shardFor(peerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.suspended[peerID]
}

// anomalyCheck runs the paper's anomalous-behavior detection over the one
// peer a settlement batch charged (the seed scanned every registered peer
// per batch — O(fleet) work per upload). A peer whose credited bytes exceed
// its assigned bytes by factor, or with credits but no assignment at all, is
// suspended. Reports whether the peer was newly suspended.
func (l *ledger) anomalyCheck(peerID string, factor float64) bool {
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	credited, assigned := sh.credited[peerID], sh.assigned[peerID]
	anomalous := (assigned == 0 && credited > 0) ||
		(assigned > 0 && float64(credited)/float64(assigned) > factor)
	if !anomalous || sh.suspended[peerID] {
		return false
	}
	sh.suspended[peerID] = true
	return true
}

// ledgerRow is one peer's full settlement row, as persisted in snapshots.
type ledgerRow struct {
	ID          string `json:"id"`
	Credited    int64  `json:"credited"`
	Assigned    int64  `json:"assigned"`
	Rejected    int64  `json:"rejected"`
	AssignCount int64  `json:"assignCount"`
	Suspended   bool   `json:"suspended,omitempty"`
}

// exportRows copies every peer's settlement row, sorted by ID so snapshot
// bytes are deterministic for identical state.
func (l *ledger) exportRows() []ledgerRow {
	byID := make(map[string]*ledgerRow)
	touch := func(id string) *ledgerRow {
		r := byID[id]
		if r == nil {
			r = &ledgerRow{ID: id}
			byID[id] = r
		}
		return r
	}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for id, n := range sh.credited {
			touch(id).Credited = n
		}
		for id, n := range sh.assigned {
			touch(id).Assigned = n
		}
		for id, n := range sh.rejected {
			touch(id).Rejected = n
		}
		for id, n := range sh.assignCount {
			touch(id).AssignCount = n
		}
		for id, s := range sh.suspended {
			if s {
				touch(id).Suspended = true
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]ledgerRow, 0, len(byID))
	for _, r := range byID {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// restoreRow sets one peer's row to absolute snapshot values.
func (l *ledger) restoreRow(r ledgerRow) {
	sh := l.shardFor(r.ID)
	sh.mu.Lock()
	sh.credited[r.ID] = r.Credited
	sh.assigned[r.ID] = r.Assigned
	sh.rejected[r.ID] = r.Rejected
	sh.assignCount[r.ID] = r.AssignCount
	if r.Suspended {
		sh.suspended[r.ID] = true
	}
	sh.mu.Unlock()
}

// floorAssigned raises a peer's assigned-bytes figure to at least n. Journal
// replay uses this: settle records carry the absolute assigned value at
// settlement time, and max semantics make replaying the same record — or
// records interleaved with a snapshot — idempotent, keeping the anomaly
// ratio (credited/assigned) sane after recovery even though individual
// wrapper-serve charges are not journaled.
func (l *ledger) floorAssigned(peerID string, n int64) {
	if n <= 0 {
		return
	}
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	if sh.assigned[peerID] < n {
		sh.assigned[peerID] = n
	}
	sh.mu.Unlock()
}

// floorKeyBytes raises a key's byte budget to at least n (idempotent replay
// of keys-issued records, which carry the budget as an absolute value).
func (l *ledger) floorKeyBytes(keyID string, n int64) {
	sh := l.keyShardFor(keyID)
	sh.mu.Lock()
	if sh.keyBytes[keyID] < n {
		sh.keyBytes[keyID] = n
	}
	sh.mu.Unlock()
}

// issueKey records which peer a short-term key was minted for.
func (l *ledger) issueKey(keyID, peerID string) {
	sh := l.keyShardFor(keyID)
	sh.mu.Lock()
	sh.keyPeer[keyID] = peerID
	sh.mu.Unlock()
}

// addKeyBytes grows the byte budget assigned under a key.
func (l *ledger) addKeyBytes(keyID string, n int64) {
	sh := l.keyShardFor(keyID)
	sh.mu.Lock()
	sh.keyBytes[keyID] += n
	sh.mu.Unlock()
}

// keyInfo reads a key's issued-for peer and byte budget.
func (l *ledger) keyInfo(keyID string) (peerID string, maxBytes int64, ok bool) {
	sh := l.keyShardFor(keyID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	peerID, ok = sh.keyPeer[keyID]
	return peerID, sh.keyBytes[keyID], ok
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
// returns a value in [0, n)), deduplicated — a spot-check sample, not a
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
