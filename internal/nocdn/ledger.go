package nocdn

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ledgerShardCount shards the settlement ledger by hash; a power of two so
// the shard pick is a mask. Settlement for different peers never serializes
// against each other.
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
		// A copy: peerID may be a substring of a whole upload's body.
		peerID = strings.Clone(peerID)
		r = &peerRow{ledgerRow: ledgerRow{ID: peerID}, peerAudit: peerAudit{PeerID: peerID}}
		sh.rows[peerID] = r
	}
	return r
}

// Short-term key lifetime, and how long a consumed nonce is remembered. A
// key signs records for keyTTL from the build of the wrapper map that hands
// it out; the pool renews a map once its keys are keyTTL/2 old, so every
// record a view signs has at least keyTTL/2 to settle. A record settled at
// t was signed under a key minted before t, so from t + keyTTL on its key's
// expiry rejects a replay by itself: the nonce cache keeps a nonce for
// replayWindow, one key lifetime plus clockSlack.
const (
	keyTTL       = 10 * time.Minute
	clockSlack   = time.Minute
	replayWindow = keyTTL + clockSlack
)

// A short-term key is a value, not a row. Its ID names the authority it
// carries, "<peer>-<expiry>-<budget>-<build>": the Unix second it expires,
// the bytes its wrapper map assigned the peer, and the number of the
// wrapper build that minted it, the last three in base 36. Its secret is
// HMAC-SHA256(origin secret, ID). The origin keeps no per-key state: it
// parses an ID back into its grant and derives the secret again, and an ID
// anyone else writes names a secret only the origin knows.

// keyRow is what a short-term key grants, as parseKeyID reads it from the
// key's ID: records from one peer claiming at most MaxBytes each, until
// Expires (Unix nanoseconds). It is never stored.
type keyRow struct {
	ID       string
	PeerID   string
	Expires  int64
	MaxBytes int64
}

// parseKeyID reads the grant a key ID names; ok is false unless it is a
// non-empty peer and three base-36 numbers.
func parseKeyID(id string) (k keyRow, ok bool) {
	var n [3]uint64 // expiry, budget, build
	rest := id
	for i := len(n) - 1; i >= 0; i-- {
		dash := strings.LastIndexByte(rest, '-')
		if dash < 0 {
			return keyRow{}, false
		}
		v, err := strconv.ParseUint(rest[dash+1:], 36, 63)
		if err != nil {
			return keyRow{}, false
		}
		n[i], rest = v, rest[:dash]
	}
	if rest == "" {
		return keyRow{}, false
	}
	return keyRow{ID: id, PeerID: rest, Expires: int64(n[0]) * int64(time.Second), MaxBytes: int64(n[1])}, true
}

// keyDeriver is an HMAC-SHA256 state keyed with the origin secret, and
// scratch space. Pooled by the origin, it derives without allocating.
type keyDeriver struct {
	mac hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

// secret returns the secret of key ID d.buf, valid until d's next use.
func (d *keyDeriver) secret() []byte {
	d.mac.Reset()
	d.mac.Write(d.buf)
	return d.mac.Sum(d.sum[:0])
}

// issue returns the key a wrapper build hands peerID: its ID and its
// secret in hex.
func (d *keyDeriver) issue(peerID string, expires time.Time, budget, build int64) PeerKey {
	b := append(append(d.buf[:0], peerID...), '-')
	b = append(strconv.AppendInt(b, expires.Unix(), 36), '-')
	b = append(strconv.AppendInt(b, budget, 36), '-')
	d.buf = strconv.AppendInt(b, build, 36)
	id := string(d.buf)
	d.buf = hex.AppendEncode(d.buf[:0], d.secret())
	return PeerKey{KeyID: id, Secret: string(d.buf)}
}

// ledger is the origin's sharded settlement state: one settlement row per
// peer.
type ledger struct {
	shards [ledgerShardCount]ledgerShard
}

func newLedger() *ledger {
	l := &ledger{}
	for i := range l.shards {
		l.shards[i].rows = make(map[string]*peerRow)
	}
	return l
}

func (l *ledger) shardFor(peerID string) *ledgerShard {
	return &l.shards[fnv64a(peerID)&(ledgerShardCount-1)]
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
// record), sorted by ID.
func (l *ledger) evidence() []peerAudit {
	out := make([]peerAudit, 0)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for _, r := range sh.rows {
			if r.Records > 0 {
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
