package nocdn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpop/internal/hpop"
)

// FsyncPolicy selects how the control-plane WAL trades settlement latency
// for durability of the most recent appends (see the README's durability
// section for the full table).
type FsyncPolicy string

const (
	// FsyncAlways fsyncs before a mutation is acknowledged. Concurrent
	// appenders are group-committed: one fsync covers every record buffered
	// since the previous one, so the per-batch cost amortizes under load.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval flushes to the OS on every append but fsyncs on a
	// background cadence (walFsyncInterval); a power loss can drop the last
	// interval's acknowledgements, a process crash cannot.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever flushes to the OS on every append and never fsyncs; the OS
	// decides when bytes reach the platter.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("nocdn: unknown fsync policy %q (want always, interval, or never)", s)
}

// WAL framing constants.
const (
	// walMagic frames every journal record; walFileMagic heads every journal
	// file (same spirit as the segment store's "hSG1").
	walMagic     = "hWL1"
	walFileMagic = "hWF1"
	// walMaxPayload bounds one record's payload so a corrupt length field
	// can't allocate unbounded memory during recovery.
	walMaxPayload = 16 << 20
	// walFsyncInterval is the FsyncInterval background cadence.
	walFsyncInterval = 100 * time.Millisecond
	// DefaultSnapshotEvery is how many journal appends trigger a compacting
	// snapshot (and WAL truncation) by default.
	DefaultSnapshotEvery = 4096
)

// walRecType tags one journaled control-plane mutation.
type walRecType uint8

const (
	walPeerRegister walRecType = iota + 1
	walPeerSuspend
	walSettle
	walEpochTick
	_ // retired: audit_flag, which recovery refuses (see applyWALRecord)
	walKeysIssued
	walKeySecret
)

func (t walRecType) String() string {
	switch t {
	case walPeerRegister:
		return "peer_register"
	case walPeerSuspend:
		return "peer_suspend"
	case walSettle:
		return "settle"
	case walEpochTick:
		return "epoch_tick"
	case walKeysIssued:
		return "keys_issued"
	case walKeySecret:
		return "key_secret"
	}
	return "unknown"
}

// Journal payload shapes (JSON). Replay of every type except walSettle is
// idempotent (set/max semantics), which is what lets those mutations journal
// outside the settlement commit lock; see Origin.AttachWAL for the rules.
type (
	walPeerRegisterRec struct {
		ID          string  `json:"id"`
		URL         string  `json:"url"`
		RTT         float64 `json:"rtt"`
		AssignEpoch int64   `json:"assignEpoch"`
	}
	walPeerSuspendRec struct {
		ID          string `json:"id"`
		AssignEpoch int64  `json:"assignEpoch"`
	}
	walEpochTickRec struct {
		AssignEpoch int64 `json:"assignEpoch"`
	}
	// walKeysIssuedRec holds, per wrapper build, the absolute assigned-bytes
	// floor for each peer the wrapper names (current ledger figure plus this
	// build's charges). Wrapper-serve assignment charges are deliberately
	// not journaled per serve — this floor is what keeps a peer whose first
	// settlement arrives after a crash from reading as "credited with no
	// assignment". Keys is never written: it holds the key rows an older
	// build minted, which recovery reads only to refuse an unexpired one.
	walKeysIssuedRec struct {
		Keys     []parentKeyRow   `json:"keys,omitempty"`
		Assigned map[string]int64 `json:"assigned,omitempty"`
	}
	// walKeySecretRec is the origin secret, journaled once by AttachWAL.
	walKeySecretRec struct {
		Secret []byte `json:"secret"`
	}
	// walAuditDelta is one peer's share of a settlement batch in audit
	// terms: the counters and offending trace IDs replay adds to its
	// evidence row. Records journaled while the auditor kept byte
	// statistics also carry "n", "mean" and "m2"; decoding ignores them.
	walAuditDelta struct {
		PeerID    string   `json:"peerId"`
		Records   int64    `json:"records"`
		Rejects   int64    `json:"rejects"`
		Replays   int64    `json:"replays"`
		Bytes     int64    `json:"bytes"`
		Offending []string `json:"offending,omitempty"`
	}
	// walSettleRec is one settled (or rejected) batch: the consumed nonce
	// keys with the wall time to re-anchor them at, the credit and reject
	// deltas, the absolute assigned-bytes floor (so anomaly ratios stay sane
	// after replay), and the audit deltas. A batch charges only its uploader,
	// PeerID, so the maps hold one peer; they stay maps because older
	// journals hold records with PeerID "" that charged several peers, and
	// replay applies them as written.
	walSettleRec struct {
		PeerID   string           `json:"peerId"`
		Root     string           `json:"root,omitempty"`
		At       int64            `json:"atUnixNano"`
		Nonces   []string         `json:"nonces,omitempty"`
		Credits  map[string]int64 `json:"credits,omitempty"`
		Rejects  map[string]int64 `json:"rejects,omitempty"`
		Assigned map[string]int64 `json:"assigned,omitempty"`
		Audit    []walAuditDelta  `json:"audit,omitempty"`
	}
)

// walFrame is one decoded journal record.
type walFrame struct {
	typ     walRecType
	seq     uint64
	payload []byte
	chain   [32]byte // the hash chain through this record, as verified
}

// walFrameHeaderLen is magic(4) + type(1) + seq(8) + payloadLen(4).
const walFrameHeaderLen = 4 + 1 + 8 + 4

// walChain advances the hash chain over one record: each record's chain
// value commits to every record before it, so a swapped, dropped, or edited
// record anywhere in the journal breaks verification at that point.
func walChain(prev [32]byte, typ walRecType, seq uint64, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	var hdr [9]byte
	hdr[0] = byte(typ)
	binary.BigEndian.PutUint64(hdr[1:], seq)
	h.Write(hdr[:])
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// encodeWALFrame serializes one record:
//
//	magic(4) type(1) seq(8) payloadLen(4) payload chain(32) crc32(4)
//
// The CRC covers everything before it, so a torn write anywhere in the
// frame is detected; the chain value binds the frame to its predecessors.
func encodeWALFrame(typ walRecType, seq uint64, payload []byte, chain [32]byte) []byte {
	buf := make([]byte, 0, walFrameHeaderLen+len(payload)+32+4)
	buf = append(buf, walMagic...)
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, chain[:]...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// Decode errors (sentinels so recovery can distinguish "stop replaying
// here" causes and tests can assert them).
var (
	errWALTorn       = errors.New("nocdn: torn wal record")
	errWALBadCRC     = errors.New("nocdn: wal record crc mismatch")
	errWALBadChain   = errors.New("nocdn: wal hash chain break")
	errWALBadSeq     = errors.New("nocdn: wal sequence discontinuity")
	errWALBadMagic   = errors.New("nocdn: bad wal record magic")
	errWALBadPayload = errors.New("nocdn: wal payload length out of range")
	// errWALUnrecoverable marks damage a crash cannot explain — a sequence
	// gap or a broken record with later journal files still present. Recovery
	// fails loudly and touches nothing, so the surviving files stay intact
	// for manual repair.
	errWALUnrecoverable = errors.New("nocdn: unrecoverable wal damage")
)

// errJournalFailed marks a journal that a write or an fsync failed: it takes
// no append until a restart, and an upload it could not make durable is
// answered 503, never acknowledged.
var errJournalFailed = errors.New("nocdn: control journal failed; it takes no writes until a restart")

// decodeWALFrame parses one frame from buf, verifying CRC, chain continuity
// from prevChain, and sequence continuity (wantSeq, 0 = accept any). It
// returns the frame and how many bytes it consumed. Never panics on
// arbitrary input (fuzzed).
func decodeWALFrame(buf []byte, prevChain [32]byte, wantSeq uint64) (walFrame, int, error) {
	if len(buf) < walFrameHeaderLen {
		return walFrame{}, 0, errWALTorn
	}
	if string(buf[:4]) != walMagic {
		return walFrame{}, 0, errWALBadMagic
	}
	typ := walRecType(buf[4])
	seq := binary.BigEndian.Uint64(buf[5:13])
	plen := binary.BigEndian.Uint32(buf[13:17])
	if plen > walMaxPayload {
		return walFrame{}, 0, errWALBadPayload
	}
	total := walFrameHeaderLen + int(plen) + 32 + 4
	if len(buf) < total {
		return walFrame{}, 0, errWALTorn
	}
	body := buf[:total-4]
	wantCRC := binary.BigEndian.Uint32(buf[total-4 : total])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return walFrame{}, 0, errWALBadCRC
	}
	payload := buf[walFrameHeaderLen : walFrameHeaderLen+int(plen)]
	var chain [32]byte
	copy(chain[:], buf[walFrameHeaderLen+int(plen):])
	if walChain(prevChain, typ, seq, payload) != chain {
		return walFrame{}, 0, errWALBadChain
	}
	if wantSeq != 0 && seq != wantSeq {
		return walFrame{}, 0, errWALBadSeq
	}
	return walFrame{typ: typ, seq: seq, payload: payload, chain: chain}, total, nil
}

// walFileHeader heads every journal file: the first sequence number it holds
// and the chain value of the record before it (so replay of a post-snapshot
// file verifies from its first byte without the truncated prefix).
//
//	magic(4) firstSeq(8) prevChain(32) crc32(4)
const walFileHeaderLen = 4 + 8 + 32 + 4

func encodeWALFileHeader(firstSeq uint64, prevChain [32]byte) []byte {
	buf := make([]byte, 0, walFileHeaderLen)
	buf = append(buf, walFileMagic...)
	buf = binary.BigEndian.AppendUint64(buf, firstSeq)
	buf = append(buf, prevChain[:]...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

func decodeWALFileHeader(buf []byte) (firstSeq uint64, prevChain [32]byte, err error) {
	if len(buf) < walFileHeaderLen {
		return 0, prevChain, errWALTorn
	}
	if string(buf[:4]) != walFileMagic {
		return 0, prevChain, errWALBadMagic
	}
	if crc32.ChecksumIEEE(buf[:walFileHeaderLen-4]) != binary.BigEndian.Uint32(buf[walFileHeaderLen-4:walFileHeaderLen]) {
		return 0, prevChain, errWALBadCRC
	}
	firstSeq = binary.BigEndian.Uint64(buf[4:12])
	copy(prevChain[:], buf[12:44])
	return firstSeq, prevChain, nil
}

func walFileName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

func snapFileName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.json", seq)
}

// controlWAL is the origin's append-only control-plane journal: CRC-framed,
// hash-chained records with group-commit fsync batching, rotated (and the
// superseded prefix deleted) each time a snapshot compacts the state.
type controlWAL struct {
	dir    string
	policy FsyncPolicy

	// mu serializes buffered appends, rotation, and position reads.
	mu    sync.Mutex
	f     *os.File
	bw    *bufio.Writer
	seq   uint64 // last appended sequence
	chain [32]byte
	bytes int64 // bytes written to the active file (incl. header)
	// failed is the first write or fsync error, wrapping errJournalFailed:
	// from then on the journal takes no append and no snapshot until a
	// restart recovers what reached the disk.
	failed error

	// Group commit: one goroutine fsyncs at a time; everyone whose record
	// was buffered before the flush rides the same fsync.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64
	syncing   bool
	syncErr   error // a failed fsync, handed to every waiter it leaves unsynced

	// Snapshot bookkeeping.
	snapSeq           uint64 // last snapshot's sequence
	snapAt            int64  // unix nanos of the last snapshot
	appendedSinceSnap int64

	closed  bool
	stopC   chan struct{}
	metrics *hpop.Metrics
}

// openControlWAL opens (creating if needed) the journal in dir, positioned
// after the last valid record as determined by the caller's replay (the
// caller hands back position via setPosition). It does not itself replay.
func openControlWAL(dir string, policy FsyncPolicy, m *hpop.Metrics) (*controlWAL, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if err := os.Chmod(dir, 0o700); err != nil {
		return nil, err
	}
	w := &controlWAL{dir: dir, policy: policy, metrics: m, stopC: make(chan struct{})}
	w.syncCond = sync.NewCond(&w.syncMu)
	if policy == FsyncInterval {
		go w.fsyncLoop()
	}
	return w, nil
}

// fsyncLoop is the FsyncInterval background syncer.
func (w *controlWAL) fsyncLoop() {
	t := time.NewTicker(walFsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopC:
			return
		case <-t.C:
			w.syncUpTo(w.lastSeq())
		}
	}
}

func (w *controlWAL) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// openFileAt opens (or creates) the active journal file for appending.
// Callers hold w.mu.
func (w *controlWAL) openFileAt(firstSeq uint64, prevChain [32]byte, path string, existingSize int64) error {
	if w.f != nil {
		w.bw.Flush()
		w.f.Close()
	}
	fresh := existingSize <= 0
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.bytes = existingSize
	if fresh {
		hdr := encodeWALFileHeader(firstSeq, prevChain)
		if _, err := w.bw.Write(hdr); err != nil {
			return err
		}
		if err := w.bw.Flush(); err != nil {
			return err
		}
		w.bytes = int64(len(hdr))
	}
	return nil
}

// append journals one record: the frame is buffered and flushed to the OS
// before returning (recovery and interval/never policies see it). Durability
// waiting is the caller's call — settlement appends under the commit lock
// and calls waitDurable after releasing it, so the fsync never serializes
// other committers. Returns the assigned sequence.
func (w *controlWAL) append(typ walRecType, payload []byte) (uint64, error) {
	start := time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("nocdn: wal closed")
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	var err error
	if w.f == nil {
		// First append into an empty directory: start the journal at seq 1.
		err = w.openFileAt(w.seq+1, w.chain, filepath.Join(w.dir, walFileName(w.seq+1)), 0)
	}
	// The position moves only once the frame is written: a record the
	// journal could not take has no sequence, and the next boot's chain
	// never expects it.
	seq := w.seq + 1
	chain := walChain(w.chain, typ, seq, payload)
	if err == nil {
		frame := encodeWALFrame(typ, seq, payload, chain)
		if _, err = w.bw.Write(frame); err == nil {
			err = w.bw.Flush()
		}
		if err == nil {
			w.seq, w.chain = seq, chain
			w.bytes += int64(len(frame))
			w.appendedSinceSnap++
		}
	}
	if err != nil {
		w.failed = fmt.Errorf("%w: %w", errJournalFailed, err)
		err = w.failed
	}
	w.mu.Unlock()
	if err != nil {
		w.metrics.Inc("nocdn.wal.append_errors")
		return 0, err
	}
	w.metrics.Inc("nocdn.wal.appends")
	w.metrics.Observe("nocdn.wal.append_seconds", time.Since(start).Seconds())
	return seq, nil
}

// waitDurable blocks until every record with sequence <= seq is as durable
// as the policy promises: FsyncAlways waits for a covering (group-commit)
// fsync; the other policies return immediately — the append already flushed
// to the OS. An error means the records it names may not survive a crash.
func (w *controlWAL) waitDurable(seq uint64) error {
	if w.policy == FsyncAlways && seq > 0 {
		return w.syncUpTo(seq)
	}
	return nil
}

// syncUpTo blocks until every record with sequence <= target is fsynced,
// or returns the fsync error that left it unsynced; a failed fsync also
// fails the journal. Group commit: whichever waiter arrives first performs
// the fsync for every record buffered by then; late waiters ride it or run
// the next one.
func (w *controlWAL) syncUpTo(target uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.syncedSeq < target {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		prevSynced := w.syncedSeq
		w.syncMu.Unlock()

		w.mu.Lock()
		if w.bw != nil {
			w.bw.Flush()
		}
		upto := w.seq
		f := w.f
		w.mu.Unlock()
		var err error
		if f != nil {
			if err = f.Sync(); err != nil {
				err = fmt.Errorf("%w: %w", errJournalFailed, err)
				w.mu.Lock()
				if w.failed == nil {
					w.failed = err
				}
				w.mu.Unlock()
			}
		}

		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if upto > w.syncedSeq {
			w.syncedSeq = upto
		}
		w.metrics.Inc("nocdn.wal.fsyncs")
		if err == nil && upto > prevSynced {
			w.metrics.Observe("nocdn.wal.fsync_batch", float64(upto-prevSynced))
		}
		w.syncCond.Broadcast()
	}
	return nil
}

// failure returns the error that failed the journal, nil while it works or
// when there is none.
func (w *controlWAL) failure() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// appendJSON marshals payload and appends it.
func (w *controlWAL) appendJSON(typ walRecType, payload any) (uint64, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	return w.append(typ, b)
}

// position returns the journal's current (seq, chain) under the append lock
// — what a snapshot captures as its cut point.
func (w *controlWAL) position() (uint64, [32]byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.chain
}

// setPosition repositions the journal after recovery replay: appends resume
// at seq+1 continuing chain, into lastFile at offset size (the byte after
// the last valid record) when the scan ended inside a file, or into a fresh
// file on the first append otherwise.
func (w *controlWAL) setPosition(seq uint64, chain [32]byte, snapSeq uint64, snapAt int64, lastFile string, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq = seq
	w.chain = chain
	w.snapSeq = snapSeq
	w.snapAt = snapAt
	w.appendedSinceSnap = int64(seq - snapSeq)
	w.syncMu.Lock()
	w.syncedSeq = seq // everything replayed came off disk: durable by definition
	w.syncMu.Unlock()
	if lastFile == "" {
		return nil
	}
	return w.openFileAt(0, chain, lastFile, size)
}

// sinceSnapshot reports how many records were journaled since the last
// snapshot rotation.
func (w *controlWAL) sinceSnapshot() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendedSinceSnap
}

// snapshotInfo returns the last snapshot's sequence and unix-nano time.
func (w *controlWAL) snapshotInfo() (uint64, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapSeq, w.snapAt
}

// durableSeq returns the highest fsync-covered sequence.
func (w *controlWAL) durableSeq() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncedSeq
}

// rotateAfterSnapshot starts a fresh journal file at the journal's current
// position and deletes the files the PREVIOUS snapshot superseded. The new
// snapshot's own prefix is deliberately retained for one more rotation: if
// the newest snapshot fails its integrity check at recovery, AttachWAL falls
// back to the previous snapshot plus this longer journal replay — deleting
// eagerly would make a single corrupt snapshot fatal to the whole state.
//
// The new file opens at w.seq+1 (not snapSeq+1): idempotent record types
// journal outside the commit lock, so appends may have landed between the
// snapshot cut and this rotation, and a file header claiming an earlier
// first-sequence than its first frame would read as corruption on replay.
func (w *controlWAL) rotateAfterSnapshot(snapSeq uint64, takenAt time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	prevSnapSeq := w.snapSeq
	path := filepath.Join(w.dir, walFileName(w.seq+1))
	// Back-to-back snapshots with no appends between them target the same
	// file name; reuse it (its header already carries this exact position)
	// rather than appending a second header into it.
	var existingSize int64
	if fi, serr := os.Stat(path); serr == nil {
		existingSize = fi.Size()
	}
	if err := w.openFileAt(w.seq+1, w.chain, path, existingSize); err != nil {
		return err
	}
	w.snapSeq = snapSeq
	w.snapAt = takenAt.UnixNano()
	w.appendedSinceSnap = 0
	// Durability handoff, one snapshot behind: everything the previous
	// snapshot covers is safe to drop, because recovery never needs to reach
	// further back than the second-newest snapshot. Cleanup is best-effort;
	// the new journal is already live.
	snaps, _ := listSeqFiles(w.dir, "snap-", ".json")
	for _, s := range snaps {
		if s.seq < prevSnapSeq {
			os.Remove(s.path)
		}
	}
	// A journal file is disposable only when the NEXT file already starts at
	// or before prevSnapSeq+1 — i.e. every record it holds is covered by the
	// retained previous snapshot. Comparing the file's own first sequence
	// would discard records past the cut that a pre-rotation file still holds.
	logs, _ := listSeqFiles(w.dir, "wal-", ".log")
	for i := 0; i+1 < len(logs); i++ {
		if logs[i+1].seq <= prevSnapSeq+1 {
			os.Remove(logs[i].path)
		}
	}
	return nil
}

// seqFile is a state file named by a sequence number in hex: a journal
// file (wal-<first seq>.log) or a snapshot (snap-<cut seq>.json).
type seqFile struct {
	seq  uint64
	path string
}

// listSeqFiles returns dir's files named prefix, a hex sequence number and
// suffix, in ascending sequence order.
func listSeqFiles(dir, prefix, suffix string) ([]seqFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		if seq, err := strconv.ParseUint(hexPart, 16, 64); err == nil {
			out = append(out, seqFile{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// close flushes, fsyncs, and closes the journal.
func (w *controlWAL) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.stopC)
	var err error
	if w.f != nil {
		if ferr := w.bw.Flush(); ferr != nil {
			err = ferr
		}
		if ferr := w.f.Sync(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := w.f.Close(); ferr != nil && err == nil {
			err = ferr
		}
		w.f = nil
	}
	w.mu.Unlock()
	// Release any group-commit waiters parked on a sequence that will now
	// never sync.
	w.syncMu.Lock()
	w.syncedSeq = w.seq
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return err
}

// ---- snapshot file format ----

// snapshotEnvelope wraps the marshaled origin state with an integrity hash;
// a snapshot that fails the hash is ignored and recovery falls back to the
// previous one plus a longer journal replay.
type snapshotEnvelope struct {
	State json.RawMessage `json:"state"`
	SHA   string          `json:"sha256"`
}

// writeSnapshotFile durably writes one snapshot (tmp + fsync + rename).
func writeSnapshotFile(dir string, seq uint64, state []byte) error {
	sum := sha256.Sum256(state)
	env, err := json.Marshal(snapshotEnvelope{State: state, SHA: hex.EncodeToString(sum[:])})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, snapFileName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(env); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// readSnapshotFile loads and verifies one snapshot's state bytes.
func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(env.State)
	if hex.EncodeToString(sum[:]) != env.SHA {
		return nil, errors.New("nocdn: snapshot integrity hash mismatch")
	}
	return env.State, nil
}

// syncDir fsyncs a directory so a rename survives power loss (best-effort;
// not all platforms support directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ---- on-disk scan (recovery support) ----

// walScanResult is the outcome of replaying one directory of journal files.
type walScanResult struct {
	lastSeq   uint64
	chain     [32]byte
	replayed  int
	skipped   int
	truncated bool // a torn/corrupt suffix was cut
	lastFile  string
	lastSize  int64
}

// scanWALDir replays every journal record with sequence > afterSeq in order,
// calling apply for each. Verification is total: CRC per frame, hash-chain
// and sequence continuity across frames and files. An invalid suffix of the
// NEWEST file is a torn tail (the only damage a crash can produce) and is
// truncated back to the last good record, exactly like the segment store's
// torn-tail recovery. Anything else — a sequence gap between files, or a
// broken record with later journal files still present — cannot be a crash
// artifact, so the scan fails with errWALUnrecoverable and deletes nothing:
// a corrupt or missing snapshot must never cascade into destroying the
// intact journal files that still hold the state. An error from apply ends
// the scan as it stands; since only the newest file's tail is ever cut, and
// only after every frame before it was applied, nothing has changed on disk
// by then.
func scanWALDir(dir string, afterSeq uint64, afterChain [32]byte, apply func(walFrame) error) (walScanResult, error) {
	res := walScanResult{lastSeq: afterSeq, chain: afterChain}
	files, err := listSeqFiles(dir, "wal-", ".log")
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, err
	}
	for i, wf := range files {
		lastFile := i == len(files)-1
		raw, err := os.ReadFile(wf.path)
		if err != nil {
			return res, err
		}
		firstSeq, prevChain, err := decodeWALFileHeader(raw)
		if err != nil {
			if !lastFile {
				return res, fmt.Errorf("%w: %s has an unreadable header but later journal files exist",
					errWALUnrecoverable, filepath.Base(wf.path))
			}
			// Torn header on the newest file: it was created right before the
			// crash and holds nothing replayable.
			res.truncated = true
			os.Remove(wf.path)
			break
		}
		if firstSeq > res.lastSeq+1 && firstSeq > afterSeq+1 {
			// A gap in the sequence space: records between the last replayed
			// sequence and this file are gone. Rotation never produces this —
			// it means the snapshot covering the missing prefix was lost or
			// failed its integrity check. Refuse to recover (and to delete)
			// rather than silently booting without settled state.
			return res, fmt.Errorf("%w: journal gap before %s (first seq %d, replayed through %d; missing or corrupt snapshot?)",
				errWALUnrecoverable, filepath.Base(wf.path), firstSeq, res.lastSeq)
		}
		// Chain origin for this file: its own header (covers files that
		// start before the snapshot cut, where our running chain is ahead).
		chain := prevChain
		wantSeq := firstSeq
		off := int64(walFileHeaderLen)
		broken := false
		for int(off) < len(raw) {
			fr, n, derr := decodeWALFrame(raw[off:], chain, wantSeq)
			if derr != nil {
				if !lastFile {
					return res, fmt.Errorf("%w: %s invalid at offset %d (%v) with later journal files present",
						errWALUnrecoverable, filepath.Base(wf.path), off, derr)
				}
				res.truncated = true
				os.Truncate(wf.path, off)
				broken = true
				break
			}
			chain = fr.chain
			wantSeq = fr.seq + 1
			off += int64(n)
			if fr.seq <= afterSeq {
				res.skipped++
			} else {
				if apply != nil {
					if aerr := apply(fr); aerr != nil {
						return res, fmt.Errorf("%s seq %d: %w", filepath.Base(wf.path), fr.seq, aerr)
					}
				}
				res.replayed++
			}
			res.lastSeq = fr.seq
			res.chain = chain
			res.lastFile = wf.path
			res.lastSize = off
		}
		if broken {
			break
		}
	}
	return res, nil
}
