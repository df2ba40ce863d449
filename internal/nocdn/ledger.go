package nocdn

import (
	"slices"
	"sort"
	"sync"
)

// ledgerShardCount shards the settlement ledger and key table by hash; a
// power of two so the shard pick is a mask. Settlement for different peers
// (and key lookups for different wrappers) never serialize against each
// other.
const ledgerShardCount = 32

// charge is one peer's share of a pooled wrapper map: the bytes each serve
// of the map assigns it and how many assignments that is, summed per peer
// when the map is built.
type charge struct {
	peerID string
	bytes  int64
	count  int64
}

// peerRow is one peer's settlement account: the money (bytes its wrappers
// assigned, bytes its records were credited, records rejected, whether it is
// suspended) and the audit evidence over the batches it uploaded. The two
// halves are what a snapshot's ledger and audit sections hold.
type peerRow struct {
	ledgerRow
	peerAudit
}

// ledgerShard is one lock's worth of settlement rows.
type ledgerShard struct {
	mu   sync.RWMutex
	rows map[string]*peerRow
}

// rowLocked returns peerID's row, creating it; sh.mu must be held for
// writing.
func (sh *ledgerShard) rowLocked(peerID string) *peerRow {
	r := sh.rows[peerID]
	if r == nil {
		r = &peerRow{ledgerRow: ledgerRow{ID: peerID}, peerAudit: peerAudit{PeerID: peerID}}
		sh.rows[peerID] = r
	}
	return r
}

// keyShard is one lock's worth of the short-term key table.
type keyShard struct {
	mu       sync.RWMutex
	keyPeer  map[string]string
	keyBytes map[string]int64
}

// ledger is the origin's sharded settlement state: which peer each key was
// issued for, how many bytes were assigned under it, and one settlement row
// per peer.
type ledger struct {
	shards    [ledgerShardCount]ledgerShard
	keyShards [ledgerShardCount]keyShard
}

func newLedger() *ledger {
	l := &ledger{}
	for i := range l.shards {
		l.shards[i].rows = make(map[string]*peerRow)
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

// assignCharges records one wrapper serve's expectations: per-peer assigned
// bytes plus the outstanding-assignment load signal. The charges come
// summed per peer, so once the named peers have rows a serve allocates
// nothing.
func (l *ledger) assignCharges(charges []charge) {
	for _, c := range charges {
		sh := l.shardFor(c.peerID)
		sh.mu.Lock()
		r := sh.rowLocked(c.peerID)
		r.Assigned += c.bytes
		r.AssignCount += c.count
		sh.mu.Unlock()
	}
}

// settle applies one settlement batch to its uploader's row under one lock:
// credited bytes, rejected records, and the batch's audit evidence. With
// judge set it then runs the paper's anomalous-behavior detection over the
// row: a peer whose credited bytes exceed its assigned bytes by
// anomalyFactor, or with credits but no assignment at all, is suspended.
// Reports whether the peer was newly suspended.
func (l *ledger) settle(peerID string, credit, rejected int64, ev walAuditDelta, judge bool) bool {
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rowLocked(peerID)
	r.Credited += credit
	r.Rejected += rejected
	r.Records += ev.Records
	r.Rejects += ev.Rejects
	r.Replays += ev.Replays
	r.Bytes += ev.Bytes
	for _, tid := range ev.Offending {
		if len(r.Offending) < auditMaxOffending {
			r.Offending = append(r.Offending, tid)
		}
	}
	if !judge || r.Suspended {
		return false
	}
	r.Suspended = (r.Assigned == 0 && r.Credited > 0) ||
		(r.Assigned > 0 && float64(r.Credited)/float64(r.Assigned) > anomalyFactor)
	return r.Suspended
}

// row reads one peer's money (zero for a peer with no row).
func (l *ledger) row(peerID string) ledgerRow {
	sh := l.shardFor(peerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.rows[peerID]; r != nil {
		return r.ledgerRow
	}
	return ledgerRow{}
}

// suspend pulls a peer from rotation.
func (l *ledger) suspend(peerID string) {
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	sh.rowLocked(peerID).Suspended = true
	sh.mu.Unlock()
}

// isSuspended reports whether a peer is out of rotation.
func (l *ledger) isSuspended(peerID string) bool {
	sh := l.shardFor(peerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.rows[peerID]
	return r != nil && r.Suspended
}

// flag marks a peer flagged. Reports whether the flag is new, with the
// offending trace IDs its row held.
func (l *ledger) flag(peerID string) (offending []string, isNew bool) {
	sh := l.shardFor(peerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rowLocked(peerID)
	if r.Flagged {
		return nil, false
	}
	r.Flagged = true
	return slices.Clone(r.Offending), true
}

// ledgerRow is the money half of a peer's row, as persisted in snapshots.
type ledgerRow struct {
	ID          string `json:"id"`
	Credited    int64  `json:"credited"`
	Assigned    int64  `json:"assigned"`
	Rejected    int64  `json:"rejected"`
	AssignCount int64  `json:"assignCount"`
	Suspended   bool   `json:"suspended,omitempty"`
}

// rows copies the money half of every row, sorted by ID so snapshot bytes
// are deterministic for identical state.
func (l *ledger) rows() []ledgerRow {
	out := make([]ledgerRow, 0)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for _, r := range sh.rows {
			out = append(out, r.ledgerRow)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// evidence copies the audit half of every row that has any (a settled
// record or a flag), sorted by ID.
func (l *ledger) evidence() []peerAudit {
	out := make([]peerAudit, 0)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for _, r := range sh.rows {
			if r.Records > 0 || r.Flagged {
				pa := r.peerAudit
				pa.Offending = slices.Clone(pa.Offending)
				out = append(out, pa)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PeerID < out[j].PeerID })
	return out
}

// restore sets rows to a snapshot's absolute values: the ledger section's
// money, then the audit section's evidence.
func (l *ledger) restore(money []ledgerRow, evidence []peerAudit) {
	for _, m := range money {
		sh := l.shardFor(m.ID)
		sh.mu.Lock()
		sh.rowLocked(m.ID).ledgerRow = m
		sh.mu.Unlock()
	}
	for _, pa := range evidence {
		sh := l.shardFor(pa.PeerID)
		sh.mu.Lock()
		sh.rowLocked(pa.PeerID).peerAudit = pa
		sh.mu.Unlock()
	}
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
	if r := sh.rowLocked(peerID); r.Assigned < n {
		r.Assigned = n
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
