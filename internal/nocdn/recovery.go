package nocdn

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// journal is the origin's durable part, set once by AttachWAL before
// anything is served: the control-plane journal (it locks itself), the
// attach configuration and startup replay, and the gate that lets one
// automatic snapshot run at a time.
type journal struct {
	wal          *controlWAL
	walOpts      WALOptions
	walRecovery  RecoveryStats
	snapshotGate atomic.Bool
}

// WALOptions configures the origin's durable control plane.
type WALOptions struct {
	// Fsync is the durability policy ("" means FsyncAlways).
	Fsync FsyncPolicy
	// SnapshotEvery compacts the journal after that many appends
	// (0 = DefaultSnapshotEvery, negative = never auto-snapshot — benches
	// use this to measure pure-replay recovery).
	SnapshotEvery int
}

func (opts WALOptions) snapshotEvery() int64 {
	switch {
	case opts.SnapshotEvery < 0:
		return 0
	case opts.SnapshotEvery == 0:
		return DefaultSnapshotEvery
	}
	return int64(opts.SnapshotEvery)
}

// RecoveryStats describes one startup replay.
type RecoveryStats struct {
	SnapshotSeq     uint64        `json:"snapshotSeq"`
	RecordsReplayed int           `json:"recordsReplayed"`
	RecordsSkipped  int           `json:"recordsSkipped"`
	TruncatedTail   bool          `json:"truncatedTail"`
	LastSeq         uint64        `json:"lastSeq"`
	Duration        time.Duration `json:"durationNanos"`
}

// originSnapshot is the compacted control-plane state one snapshot file
// holds: everything a restarted origin needs besides the content catalog
// (which the daemon republishes) and the journal tail.
type originSnapshot struct {
	Seq          uint64      `json:"seq"`
	ChainHex     string      `json:"chainHex"`
	ContentEpoch int64       `json:"contentEpoch"`
	AssignEpoch  int64       `json:"assignEpoch"`
	TakenAt      int64       `json:"takenAtUnixNano"`
	Peers        []snapPeer  `json:"peers"`
	Ledger       []ledgerRow `json:"ledger"`
	KeySecret    []byte      `json:"keySecret,omitempty"`
	// Keys is never written; recovery reads it only to refuse an older
	// build's unexpired key row (checkKeyRows).
	Keys   []parentKeyRow `json:"keys,omitempty"`
	Nonces []snapNonce    `json:"nonces"`
	Audit  auditState     `json:"audit"`
}

type snapPeer struct {
	ID  string  `json:"id"`
	URL string  `json:"url"`
	RTT float64 `json:"rtt"`
}

type snapNonce struct {
	N  string `json:"n"`
	At int64  `json:"atUnixNano"`
}

// errStateFormat refuses state on disk that this release does not read.
// The window is one release: the origin's state dir and the peer's spool
// are read as this release and the one before it write them. Anything else
// that would move money, a map or a verdict if it were dropped — a journal
// record of a kind this release does not write, an unexpired key row, a
// spool line that is not a leaf — fails the attach with this error, which
// names the file, where in it, what was found and the way forward. Before
// it returns, nothing on disk has changed.
var errStateFormat = errors.New("nocdn: state format outside this release's window")

// The ways forward an errStateFormat names.
const (
	olderStateWay = "boot the previous release on this dir, let it run past the 10-minute key lifetime, " +
		"and shut it down cleanly: its final snapshot covers every older record"
	newerStateWay = "run the newer release that wrote it"
)

// parentKeyRow is a key row as builds before keys derived from the origin
// secret journaled each key they minted. Recovery reads only its expiry.
type parentKeyRow struct {
	Expires int64 `json:"expiresUnixNano"`
}

// checkKeyRows refuses a key row that has not expired at now: dropping it
// would reject its key's records as unknown. An expired row authorises
// nothing and is ignored.
func checkKeyRows(rows []parentKeyRow, now time.Time) error {
	for _, k := range rows {
		if now.UnixNano() <= k.Expires {
			return fmt.Errorf("%w: keys holds a key row unexpired until %s; %s", errStateFormat,
				time.Unix(0, k.Expires).UTC().Format(time.RFC3339), olderStateWay)
		}
	}
	return nil
}

// storeMax floors an atomic epoch at v (idempotent journal replay: epochs
// are journaled as absolute values and only ever move forward).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// AttachWAL makes the origin's control plane durable: it recovers state
// from dir (newest valid snapshot, then the journal tail with torn-record
// truncation) and journals every control-plane mutation from here on.
// Call it after construction and observability wiring but before publishing
// content or registering live peers — recovery restores the pre-crash
// registry, ledger, audit state, origin secret, and replay-nonce window, and
// rebuilds the assignment ring deterministically so wrapper maps come back
// byte-stable. A dir holding no origin secret journals the one NewOrigin
// drew before AttachWAL returns. dir is made readable by its owner only.
// State this release does not read fails with errStateFormat, and
// unexplainable journal damage with errWALUnrecoverable; either way no file
// in dir has changed.
func (o *Origin) AttachWAL(dir string, opts WALOptions) (RecoveryStats, error) {
	if o.wal != nil {
		return RecoveryStats{}, fmt.Errorf("nocdn: wal already attached")
	}
	policy := opts.Fsync
	if policy == "" {
		policy = FsyncAlways
	}
	start := time.Now()
	sp := o.tracer.Start("nocdn.origin", "wal_recover")
	defer sp.End()
	sp.SetLabel("dir", dir)

	w, err := openControlWAL(dir, policy, o.metrics)
	if err != nil {
		sp.SetError(err)
		return RecoveryStats{}, err
	}
	drawn := o.derivers // recovery replaces it if it adopts a journaled secret
	var stats RecoveryStats
	fail := func(err error) (RecoveryStats, error) {
		w.close()
		sp.SetError(err)
		return stats, err
	}

	// Newest valid snapshot wins; a corrupt one falls back to the next
	// (older) candidate with a correspondingly longer journal replay. One
	// that decodes but holds state this release does not read refuses.
	var snapChain [32]byte
	snapSeq, snapAt := uint64(0), int64(0)
	for _, cand := range snapshotCandidates(dir) {
		state, rerr := readSnapshotFile(cand.path)
		if rerr != nil {
			o.metrics.Inc("nocdn.wal.snapshot_read_errors")
			continue
		}
		var snap originSnapshot
		if json.Unmarshal(state, &snap) != nil {
			o.metrics.Inc("nocdn.wal.snapshot_read_errors")
			continue
		}
		if err := checkKeyRows(snap.Keys, o.now()); err != nil {
			return fail(fmt.Errorf("%s: %w", filepath.Base(cand.path), err))
		}
		o.restoreSnapshot(snap)
		snapSeq, snapAt = snap.Seq, snap.TakenAt
		if ch, derr := hex.DecodeString(snap.ChainHex); derr == nil && len(ch) == 32 {
			copy(snapChain[:], ch)
		}
		break
	}
	stats.SnapshotSeq = snapSeq

	res, err := scanWALDir(dir, snapSeq, snapChain, o.applyWALRecord)
	if err != nil {
		return fail(err)
	}
	if res.truncated {
		o.metrics.Inc("nocdn.wal.truncated_tails")
	}
	stats.RecordsReplayed = res.replayed
	stats.RecordsSkipped = res.skipped
	stats.TruncatedTail = res.truncated
	stats.LastSeq = res.lastSeq
	if err := w.setPosition(res.lastSeq, res.chain, snapSeq, snapAt, res.lastFile, res.lastSize); err != nil {
		return fail(err)
	}

	o.invalidateWrappers()

	o.wal = w
	if o.derivers == drawn {
		o.walWait(o.journalAppend(walKeySecret, walKeySecretRec{Secret: o.keySecret}))
	}
	stats.Duration = time.Since(start)
	o.walOpts = opts
	o.walRecovery = stats
	o.metrics.Observe("nocdn.wal.recovery_seconds", stats.Duration.Seconds())
	o.metrics.Add("nocdn.wal.recovered_records", float64(stats.RecordsReplayed))
	sp.SetLabel("snapshot_seq", fmt.Sprint(snapSeq))
	sp.SetLabel("replayed", fmt.Sprint(stats.RecordsReplayed))
	sp.SetLabel("truncated", fmt.Sprint(stats.TruncatedTail))
	return stats, nil
}

// snapshotCandidates lists snapshot files newest-first.
func snapshotCandidates(dir string) []seqFile {
	snaps, _ := listSeqFiles(dir, "snap-", ".json")
	slices.Reverse(snaps)
	return snaps
}

// restoreSnapshot loads one compacted snapshot into the (fresh) origin.
func (o *Origin) restoreSnapshot(snap originSnapshot) {
	if snap.KeySecret != nil {
		o.setKeySecret(snap.KeySecret)
	}
	storeMax(&o.contentEpoch, snap.ContentEpoch)
	storeMax(&o.assignEpoch, snap.AssignEpoch)
	for _, p := range snap.Peers {
		o.health.Register(p.ID)
		o.registry.add(p.ID, p.URL, p.RTT)
		o.ring.add(p.ID)
	}
	o.ledger.restore(snap.Ledger, snap.Audit.Peers)
	nonces := make(map[string]time.Time, len(snap.Nonces))
	for _, n := range snap.Nonces {
		nonces[n.N] = time.Unix(0, n.At)
	}
	o.nonces.Restore(nonces)
}

// applyWALRecord replays one journaled mutation. Every branch is
// idempotent — replaying a record whose effect the snapshot (or an earlier
// pass) already holds changes nothing — and none of them fire operator
// side effects (spans, metrics counters for live settlement): recovery
// restores state, it does not re-settle.
func (o *Origin) applyWALRecord(fr walFrame) error {
	switch fr.typ {
	case walPeerRegister:
		var rec walPeerRegisterRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		o.health.Register(rec.ID)
		o.registry.add(rec.ID, rec.URL, rec.RTT)
		o.ring.add(rec.ID)
		storeMax(&o.assignEpoch, rec.AssignEpoch)
	case walPeerSuspend:
		var rec walPeerSuspendRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		o.ledger.suspend(rec.ID)
		storeMax(&o.assignEpoch, rec.AssignEpoch)
	case walEpochTick:
		var rec walEpochTickRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		storeMax(&o.assignEpoch, rec.AssignEpoch)
	case walKeysIssued:
		var rec walKeysIssuedRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		if err := checkKeyRows(rec.Keys, o.now()); err != nil {
			return err
		}
		for id, n := range rec.Assigned {
			o.ledger.floorAssigned(id, n)
		}
	case walKeySecret:
		var rec walKeySecretRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		o.setKeySecret(rec.Secret)
	case walSettle:
		var rec walSettleRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		if len(rec.Nonces) > 0 {
			at := time.Unix(0, rec.At)
			nonces := make(map[string]time.Time, len(rec.Nonces))
			for _, n := range rec.Nonces {
				nonces[n] = at
			}
			o.nonces.Restore(nonces)
		}
		// A record charges its uploader only, but an older journal's
		// PeerID "" records charged several peers: one ledger call per
		// entry applies either as written.
		for id, n := range rec.Credits {
			o.ledger.settle(id, n, 0, walAuditDelta{}, false)
		}
		for id, n := range rec.Rejects {
			o.ledger.settle(id, 0, n, walAuditDelta{}, false)
		}
		for _, d := range rec.Audit {
			o.ledger.settle(d.PeerID, 0, 0, d, false)
		}
		for id, n := range rec.Assigned {
			o.ledger.floorAssigned(id, n)
		}
	default:
		// A kind this release does not write: a newer release's, or the
		// retired audit_flag (kind 5), whose replay suspended a peer.
		// Skipping either could boot without a suspension or a credit.
		way := olderStateWay
		if fr.typ > walKeySecret {
			way = newerStateWay
		}
		return fmt.Errorf("%w: a record of kind %d, which this release does not write; %s",
			errStateFormat, fr.typ, way)
	}
	return nil
}

// ---- journaling (live-path write side) ----

// journalAppend appends one record, nil-WAL safe. Its failures never fail
// the control-plane operation itself (availability over durability); they
// surface on nocdn.wal.append_errors. Settlement and a wrapper build's
// floors fail closed, so they append without this (commitSettlement,
// journalKeysIssued).
func (o *Origin) journalAppend(typ walRecType, payload any) uint64 {
	if o.wal == nil {
		return 0
	}
	seq, err := o.wal.appendJSON(typ, payload)
	if err != nil {
		return 0
	}
	return seq
}

// walWait blocks until seq is durable per policy, nil-WAL safe; an error
// means it may not survive a crash.
func (o *Origin) walWait(seq uint64) error {
	if o.wal == nil {
		return nil
	}
	return o.wal.waitDurable(seq)
}

// journalKeysIssued makes a wrapper build's assignment floors durable
// before the wrapper is handed out: it floors each named peer's assigned
// bytes at its post-charge figure. Per-serve assignment charges are not
// journaled, so without the floor a peer whose first settlement lands after
// a restart would replay as credited-with-no-assignment and be suspended as
// anomalous. pending holds this build's charges, one per peer the wrapper
// names, which the serve that triggered the build has not applied to the
// ledger yet. An error means the floors may not survive a crash, and the
// wrapper must not be served.
func (o *Origin) journalKeysIssued(pending []charge) error {
	if o.wal == nil || len(pending) == 0 {
		return nil
	}
	rec := walKeysIssuedRec{Assigned: make(map[string]int64, len(pending))}
	for _, c := range pending {
		rec.Assigned[c.peerID] = o.ledger.row(c.peerID).Assigned + c.bytes
	}
	seq, err := o.wal.appendJSON(walKeysIssued, rec)
	if err != nil {
		return err
	}
	return o.walWait(seq)
}

// maybeSnapshot compacts the journal when it has grown past the configured
// append budget. Synchronous in the caller (a settlement commit), gated so
// only one snapshot runs at a time.
func (o *Origin) maybeSnapshot() {
	if o.wal == nil {
		return
	}
	every := o.walOpts.snapshotEvery()
	if every <= 0 || o.wal.sinceSnapshot() < every {
		return
	}
	if !o.snapshotGate.CompareAndSwap(false, true) {
		return
	}
	defer o.snapshotGate.Store(false)
	o.SnapshotNow()
}

// SnapshotNow writes a compacted snapshot of the control plane and
// truncates the journal behind it. Safe to call any time after AttachWAL.
func (o *Origin) SnapshotNow() error {
	if o.wal == nil {
		return fmt.Errorf("nocdn: no wal attached")
	}
	if err := o.wal.failure(); err != nil {
		return err
	}
	start := time.Now()
	// The commit lock orders the capture against settlement commits: every
	// journaled settle record with seq <= the cut is in the capture, and
	// none past it are. All other record types replay idempotently, so
	// concurrent registers/ticks can straddle the cut harmlessly.
	o.commitMu.Lock()
	seq, chain := o.wal.position()
	snap := o.captureState(seq, chain)
	o.commitMu.Unlock()

	state, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(o.wal.dir, seq, state); err != nil {
		o.metrics.Inc("nocdn.wal.snapshot_errors")
		return err
	}
	if err := o.wal.rotateAfterSnapshot(seq, o.now()); err != nil {
		o.metrics.Inc("nocdn.wal.snapshot_errors")
		return err
	}
	o.metrics.Inc("nocdn.wal.snapshots")
	o.metrics.Observe("nocdn.wal.snapshot_seconds", time.Since(start).Seconds())
	return nil
}

// captureState materializes the full control-plane state at a journal cut.
func (o *Origin) captureState(seq uint64, chain [32]byte) originSnapshot {
	snap := originSnapshot{
		Seq:          seq,
		ChainHex:     hex.EncodeToString(chain[:]),
		ContentEpoch: o.contentEpoch.Load(),
		AssignEpoch:  o.assignEpoch.Load(),
		TakenAt:      o.now().UnixNano(),
		Ledger:       o.ledger.rows(),
		KeySecret:    o.keySecret,
		Audit:        auditState{Peers: o.ledger.evidence()},
	}
	for _, p := range o.registry.snapshot() {
		snap.Peers = append(snap.Peers, snapPeer{ID: p.id, URL: p.url, RTT: p.rtt})
	}
	for n, at := range o.nonces.Export() {
		snap.Nonces = append(snap.Nonces, snapNonce{N: n, At: at.UnixNano()})
	}
	sort.Slice(snap.Nonces, func(i, j int) bool { return snap.Nonces[i].N < snap.Nonces[j].N })
	return snap
}

// Shutdown halts the probe and epoch loops, then drains the durable control
// plane: one final snapshot, then the journal is fsynced and closed. So no
// tick moves state the snapshot has already captured. Idempotent; without a
// WAL only the loops stop.
func (o *Origin) Shutdown() error {
	o.probeLoop.halt()
	o.epochLoop.halt()
	if o.wal == nil {
		return nil
	}
	err := o.SnapshotNow()
	if cerr := o.wal.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// WALStatus is the /debug/wal JSON shape.
type WALStatus struct {
	Attached         bool          `json:"attached"`
	Dir              string        `json:"dir,omitempty"`
	Policy           string        `json:"policy,omitempty"`
	LastSeq          uint64        `json:"lastSeq"`
	DurableSeq       uint64        `json:"durableSeq"`
	SnapshotSeq      uint64        `json:"snapshotSeq"`
	SnapshotAt       int64         `json:"snapshotAtUnixNano,omitempty"`
	AppendsSinceSnap int64         `json:"appendsSinceSnapshot"`
	Recovery         RecoveryStats `json:"recovery"`
	// Failed is the error that failed the journal, empty while it works:
	// until a restart it takes no append, and what needs one is refused.
	Failed string `json:"failed,omitempty"`
}

// WALStatusSnapshot reports the durable control plane's live status.
func (o *Origin) WALStatusSnapshot() WALStatus {
	if o.wal == nil {
		return WALStatus{}
	}
	seq, _ := o.wal.position()
	snapSeq, snapAt := o.wal.snapshotInfo()
	var failed string
	if err := o.wal.failure(); err != nil {
		failed = err.Error()
	}
	return WALStatus{
		Attached:         true,
		Dir:              o.wal.dir,
		Policy:           string(o.wal.policy),
		LastSeq:          seq,
		DurableSeq:       o.wal.durableSeq(),
		SnapshotSeq:      snapSeq,
		SnapshotAt:       snapAt,
		AppendsSinceSnap: o.wal.sinceSnapshot(),
		Recovery:         o.walRecovery,
		Failed:           failed,
	}
}

// WALHandler serves GET /debug/wal.
func (o *Origin) WALHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.WALStatusSnapshot())
	}
}
