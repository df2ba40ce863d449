package nocdn

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
)

const (
	// DefaultSettleSampleK was how many leaves of a settlement batch had
	// their signatures verified.
	//
	// Deprecated: settlement verifies every record's signature; nothing
	// samples. It is kept only for callers that still read it.
	DefaultSettleSampleK = 16
	// anomalyFactor: a peer whose credited bytes exceed assigned bytes by
	// this factor is suspended.
	anomalyFactor = 1.5
)

// settlement is the origin's settlement part. commitMu makes each batch's
// commit (its nonces consumed, its record journaled, its ledger row moved)
// atomic with respect to a snapshot's cut (SnapshotNow); the nonce cache
// and the ledger's shards also lock themselves. Record checks take no lock.
type settlement struct {
	commitMu sync.Mutex
	nonces   *auth.NonceCache
	ledger   *ledger
	// audit is the read view over the evidence half of the ledger's rows.
	audit *Auditor

	// keySecret is the origin secret every short-term key derives from,
	// drawn by NewOrigin or adopted by AttachWAL before anything is served;
	// derivers are keyed with it.
	keySecret []byte
	derivers  *sync.Pool
}

// SettleBatch settles a Merkle-committed record batch. The batch is refused
// whole, with ErrBadBatch and without a ledger row, journal record or
// consumed nonce, when its uploader is not a registered peer or the root
// does not recompute over the records; a root that was already settled (its
// nonce guards whole-batch replay) is refused the same way. Otherwise every
// record is checked on its own, signature included: a bad record is
// rejected alone, and the records beside it still credit. Every outcome —
// credit, rejection, audit evidence — is charged to b.PeerID, whatever peer
// a record names; nobody is flagged for a record. It returns how many
// records were credited, and an error exactly when that is fewer than the
// batch holds: ErrBadBatch for a refused batch, the journal's error when it
// could not make the commit durable (then nothing is acknowledged and
// POST /usage/batch answers 503), else the rejected records' errors joined,
// each wrapping ErrBadRecord.
func (o *Origin) SettleBatch(b RecordBatch) (int, error) {
	return o.settle(hpop.TraceContext{}, b, recordLeaves(b.Records))
}

// settle is the one settlement pipeline: refuse, check every record, then
// commitSettlement. The batch span continues the uploading peer's flush
// trace (parent, from the request's traceparent header); each per-record
// span continues the page view's trace via the traceparent the loader
// embedded (and signed) in the record — if that is absent or malformed, it
// falls back to a child of the batch span. leaves[i] is b.Records[i]'s
// LeafBytes: the bytes an upload carried, or derived from the records in
// process. The root is checked and every signature verified over them,
// never over a re-encoding.
func (o *Origin) settle(parent hpop.TraceContext, b RecordBatch, leaves [][]byte) (credited int, err error) {
	o.metrics.Inc("nocdn.origin.batches")
	sp := o.tracer.StartRemote("nocdn.origin", "settle_batch", parent)
	sp.SetLabel("records", strconv.Itoa(len(b.Records)))
	defer func() {
		if err != nil {
			sp.SetError(err)
		}
		sp.End()
	}()
	start := time.Now()

	// The upload is not authenticated, so a refusal leaves nothing behind:
	// only a batch that commits can open or move a ledger row. Nor does a
	// span, which outlives the request in the tracer's ring: it is labelled
	// only with a registered ID, and quotes at most 64 characters of another.
	if _, ok := o.registry.get(b.PeerID); !ok {
		o.metrics.Inc("nocdn.origin.batches_rejected")
		return 0, fmt.Errorf("%w: uploader %.64q is not a registered peer", ErrBadBatch, b.PeerID)
	}
	sp.SetLabel("peer", b.PeerID)
	if MerkleRoot(leaves) != b.Root {
		o.metrics.Inc("nocdn.origin.batches_rejected")
		return 0, fmt.Errorf("%w: root mismatch", ErrBadBatch)
	}
	if len(b.Records) == 0 {
		return 0, nil
	}

	rec := walSettleRec{PeerID: b.PeerID, Root: b.Root, Credits: make(map[string]int64), Rejects: make(map[string]int64)}
	outcomes := make([]settleOutcome, 0, len(b.Records))
	var v leafVerifier
	for i := range b.Records {
		r := b.Records[i]
		var rsp *hpop.Span
		if rtc, perr := hpop.ParseTraceparent(r.Traceparent); perr == nil {
			rsp = o.tracer.StartRemote("nocdn.origin", "settle_record", rtc)
		} else {
			rsp = sp.Child("settle_record")
		}
		rsp.SetLabel("peer", b.PeerID) // who the outcome is charged to
		rsp.SetLabel("bytes", strconv.FormatInt(r.Bytes, 10))
		oc := settleOutcome{rec: r, err: o.checkRecord(&v, r, b.PeerID, leaves[i])}
		if oc.err != nil {
			rec.Rejects[b.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			rsp.SetError(oc.err)
		} else {
			// Credit is tentative until the commit consumes the nonce; a
			// replay detected there demotes the record to a rejection.
			oc.nonceKey = r.KeyID + "|" + r.Nonce
			rec.Credits[b.PeerID] += r.Bytes
		}
		outcomes = append(outcomes, oc)
		rsp.End()
	}
	// The batch nonce (the whole-batch replay guard) is consumed by
	// commitSettlement under the commit lock, atomically with the journal
	// append, which aborts when the root was already settled. A replayed
	// batch therefore wastes the checks above, but replays are rare and a
	// nonce consumed before the journal cut could strand the peer's credit
	// across a crash.
	credited, cerr := o.commitSettlement(rec, outcomes)
	if errors.Is(cerr, auth.ErrReplayed) {
		o.metrics.Inc("nocdn.origin.batches_replayed")
		return 0, fmt.Errorf("%w: %w", ErrBadBatch, cerr)
	}
	if cerr != nil {
		return 0, cerr
	}
	sp.SetLabel("credited", strconv.Itoa(credited))
	o.metrics.Observe("nocdn.origin.settle_seconds", time.Since(start).Seconds())
	if credited == len(outcomes) {
		return credited, nil
	}
	errs := make([]error, 0, len(outcomes)-credited)
	for i, oc := range outcomes {
		if oc.err != nil {
			errs = append(errs, fmt.Errorf("record %d: %w", i, oc.err))
		}
	}
	return credited, errors.Join(errs...)
}

// commitSettlement is settle's durable apply step: under the commit lock the
// batch's nonces are consumed, the settle record (credits, rejects, consumed
// nonces, audit delta, assigned floor) is journaled, and only then is it
// applied to the uploader's ledger row, with the anomaly verdict, in one
// ledger call — so a snapshot can never capture a half-applied batch, nor a
// consumed nonce whose settle record is not yet journaled. Consuming nonces
// any earlier opens a credit-loss window: a snapshot cut between consumption
// and the journal append would, after a crash, restore the nonce as spent
// while the credit was never journaled, bouncing the peer's retry of a
// never-acked batch as a replay. The fsync wait happens after the lock is
// released (group commit), before the caller acknowledges the peer.
//
// The batch nonce, "batch|" + rec.Root, is the whole-batch replay guard: if
// it was already consumed the commit aborts with the replay error and no
// state changes (the earlier settlement of the same commitment already
// journaled its decision). A per-record nonce that turns out to be consumed — an
// earlier commit won the race — demotes that record from credit to a replay
// rejection in both the journal record and the applied delta. Returns how
// many records were actually credited. Every outcome belongs to rec.PeerID,
// the batch's uploader.
//
// A journal error (errJournalFailed) means the commit is not acknowledged.
// A journal that has failed refuses the commit before the replay check; an
// append that fails applies nothing and releases the nonces this commit
// consumed. A failed fsync comes after the commit applied: whether it
// survives is the disk's to say, and the peer's retry after the restart
// settles it once either way — as a replay if the record reached the disk,
// as new if it did not.
func (o *Origin) commitSettlement(rec walSettleRec, outcomes []settleOutcome) (int, error) {
	var endSeq uint64
	rec.At = o.now().UnixNano()
	batchNonce := "batch|" + rec.Root
	o.commitMu.Lock()
	if err := o.wal.failure(); err != nil {
		// Before the replay check: a retried batch whose fsync failed must
		// hear "not yet", never the 400 a peer takes as settled.
		o.commitMu.Unlock()
		return 0, err
	}
	if err := o.nonces.Use(batchNonce); err != nil {
		o.commitMu.Unlock()
		return 0, err
	}
	rec.Nonces = append(rec.Nonces, batchNonce)
	credited := 0
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil {
			continue
		}
		if uerr := o.nonces.Use(oc.nonceKey); uerr != nil {
			oc.err = fmt.Errorf("%w: %w", ErrBadRecord, uerr)
			oc.replayed = errors.Is(uerr, auth.ErrReplayed)
			rec.Credits[rec.PeerID] -= oc.rec.Bytes
			if rec.Credits[rec.PeerID] == 0 {
				delete(rec.Credits, rec.PeerID)
			}
			rec.Rejects[rec.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			continue
		}
		rec.Nonces = append(rec.Nonces, oc.nonceKey)
		credited++
	}
	// The delta is built after the nonce pass so the journaled audit
	// counters carry the final (post-replay-demotion) verdicts.
	ev := buildAuditDelta(rec.PeerID, outcomes)
	if o.wal != nil {
		if len(outcomes) > 0 {
			rec.Audit = []walAuditDelta{ev}
		}
		// The uploader's absolute assigned-bytes floor: per-serve wrapper
		// charges are not journaled (hot path), so the settle record carries
		// the running total and replay floors it — the anomaly ratio stays
		// sane across a restart.
		rec.Assigned = map[string]int64{rec.PeerID: o.ledger.row(rec.PeerID).Assigned}
		if _, err := o.wal.appendJSON(walSettle, rec); err != nil {
			// Nothing is applied, and the nonces go back: the retry after a
			// restart settles this batch as if it never came.
			o.nonces.Release(rec.Nonces...)
			o.commitMu.Unlock()
			return 0, err
		}
	}
	if o.ledger.settle(rec.PeerID, rec.Credits[rec.PeerID], rec.Rejects[rec.PeerID], ev, true) {
		// Newly suspended as anomalous: pooled maps naming it rebuild.
		o.assignEpoch.Add(1)
		o.metrics.Inc("nocdn.origin.anomaly_suspensions")
		o.journalAppend(walPeerSuspend, walPeerSuspendRec{ID: rec.PeerID, AssignEpoch: o.assignEpoch.Load()})
	}
	o.audit.countSettled(outcomes)
	if o.wal != nil {
		// Wait through the last record this commit produced (the settle
		// append plus any suspension record it cascaded into).
		endSeq, _ = o.wal.position()
	}
	o.commitMu.Unlock()
	if err := o.walWait(endSeq); err != nil {
		return 0, err
	}
	o.maybeSnapshot()
	return credited, nil
}

// setKeySecret makes secret the one every short-term key derives from.
func (o *Origin) setKeySecret(secret []byte) {
	o.keySecret = secret
	o.derivers = &sync.Pool{New: func() any { return &keyDeriver{mac: hmac.New(sha256.New, secret)} }}
}

// checkRecord verifies one record of an upload speaking for batchPeer,
// its signature included: leaf is r's LeafBytes, and r.Signature must be
// the key's HMAC over the leaf's signed prefix. It does NOT consume the
// nonce or write credits — both happen under the commit lock in
// commitSettlement, so verification never serializes other committers and
// a snapshot can never observe a nonce ahead of its journal record. v
// carries the HMAC state from the batch's previous record.
func (o *Origin) checkRecord(v *leafVerifier, r UsageRecord, batchPeer string, leaf []byte) error {
	if r.Provider != o.Provider {
		return ErrBadRecord
	}
	if r.PeerID != batchPeer {
		return fmt.Errorf("%w: record peer %.64q in batch from %q", ErrBadRecord, r.PeerID, batchPeer)
	}
	k, ok := parseKeyID(r.KeyID)
	if !ok {
		return fmt.Errorf("%w: %w", ErrBadRecord, auth.ErrUnknownKey)
	}
	if k.PeerID != r.PeerID {
		return fmt.Errorf("%w: key issued for different peer", ErrBadRecord)
	}
	if err := v.verify(o, k, leaf, len(r.Signature)); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	// A single key covers one wrapper build; claiming more bytes than were
	// assigned under it is definitionally inflation.
	if r.Bytes < 0 || r.Bytes > k.MaxBytes {
		return fmt.Errorf("%w: implausible byte count", ErrBadRecord)
	}
	// Expiry is checked last, so ErrExpired means the record is late and
	// nothing else.
	if o.now().UnixNano() > k.Expires {
		return fmt.Errorf("%w: %w", ErrBadRecord, auth.ErrExpired)
	}
	return nil
}

// leafVerifier checks record signatures for one batch. It keeps one
// HMAC-SHA256 state, rebuilt only when a record's key differs from the
// previous record's and reset between records under the same key. A run of
// records under one key allocates only to set the state up — at its first
// record, and at the first reset, where crypto/hmac saves its pad states —
// and nothing after.
type leafVerifier struct {
	keyID string
	mac   hash.Hash
	sum   [sha256.Size]byte
}

// verify reports whether a leaf's last sigLen bytes are the hex HMAC, under
// key k, of the leaf before the '|' that precedes them.
func (v *leafVerifier) verify(o *Origin, k keyRow, leaf []byte, sigLen int) error {
	var want [sha256.Size]byte
	if sigLen != hex.EncodedLen(len(want)) || sigLen >= len(leaf) {
		return auth.ErrBadSignature
	}
	if _, err := hex.Decode(want[:], leaf[len(leaf)-sigLen:]); err != nil {
		return auth.ErrBadSignature
	}
	if v.mac != nil && v.keyID == k.ID {
		v.mac.Reset()
	} else {
		d := o.derivers.Get().(*keyDeriver)
		d.buf = append(d.buf[:0], k.ID...)
		v.mac, v.keyID = hmac.New(sha256.New, d.secret()), k.ID
		o.derivers.Put(d)
	}
	v.mac.Write(leaf[:len(leaf)-sigLen-1])
	if !hmac.Equal(v.mac.Sum(v.sum[:0]), want[:]) {
		return auth.ErrBadSignature
	}
	return nil
}

// Accounting summarizes settlement state for one peer.
type Accounting struct {
	PeerID        string `json:"peerId"`
	CreditedBytes int64  `json:"creditedBytes"`
	AssignedBytes int64  `json:"assignedBytes"`
	Rejected      int64  `json:"rejected"`
	Suspended     bool   `json:"suspended"`
}

// AccountingFor returns one peer's ledger row.
func (o *Origin) AccountingFor(peerID string) Accounting {
	row := o.ledger.row(peerID)
	return Accounting{
		PeerID:        peerID,
		CreditedBytes: row.Credited,
		AssignedBytes: row.Assigned,
		Rejected:      row.Rejected,
		Suspended:     row.Suspended,
	}
}

func (o *Origin) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readUpload(w, r, maxBatchBody)
	if !ok {
		return
	}
	batch, leaves, err := decodeBatch(body)
	if errors.Is(err, errLegacyBatch) {
		// Not 400: that would tell an old peer its records are settled.
		http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if batch.Root == "" {
		http.Error(w, "nocdn: batch root required", http.StatusBadRequest)
		return
	}
	n, err := o.settle(hpop.ExtractTraceparent(r.Header), batch, leaves)
	if errors.Is(err, errJournalFailed) {
		// Not durable, so not acknowledged: the peer keeps the batch.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if errors.Is(err, ErrBadBatch) {
		// 400: the batch is settled from the peer's perspective (it must
		// not retry a refused or replayed commitment).
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Committed: any rejected records are counted in the ledger row.
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"credited":%d,"submitted":%d}`, n, len(batch.Records))
}

func (o *Origin) handleAccounting(w http.ResponseWriter, r *http.Request) {
	peer := r.URL.Query().Get("peer")
	if peer == "" {
		http.Error(w, "peer required", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(o.AccountingFor(peer))
}
