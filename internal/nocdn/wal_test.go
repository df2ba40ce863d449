package nocdn

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// dirFiles reads every file in dir, by name.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// assertRefused fails t unless err is errStateFormat and dir holds exactly
// the files, by name and bytes, that dirFiles read into before.
func assertRefused(t testing.TB, err error, dir string, before map[string]string) {
	t.Helper()
	if !errors.Is(err, errStateFormat) {
		t.Fatalf("attach = %v, want errStateFormat", err)
	}
	if after := dirFiles(t, dir); !maps.Equal(after, before) {
		t.Errorf("the refused attach changed the dir: %d files before, %d after", len(before), len(after))
	}
}

// buildTestWAL writes n epoch-tick records into a fresh journal in dir and
// returns the single journal file's path.
func buildTestWAL(t *testing.T, dir string, n int) string {
	t.Helper()
	w, err := openControlWAL(dir, FsyncNever, hpop.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.appendJSON(walEpochTick, walEpochTickRec{AssignEpoch: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, walFileName(1))
}

// frameEnds decodes a journal file and returns each frame's end offset.
func frameEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	firstSeq, chain, err := decodeWALFileHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	off := walFileHeaderLen
	want := firstSeq
	for off < len(raw) {
		fr, n, derr := decodeWALFrame(raw[off:], chain, want)
		if derr != nil {
			t.Fatalf("clean journal failed to decode at %d: %v", off, derr)
		}
		chain = walChain(chain, fr.typ, fr.seq, fr.payload)
		want = fr.seq + 1
		off += n
		ends = append(ends, off)
	}
	return ends
}

// replayTicks scans dir and returns the replayed epoch values in order.
func replayTicks(t *testing.T, dir string) ([]int64, walScanResult) {
	t.Helper()
	var epochs []int64
	res, err := scanWALDir(dir, 0, [32]byte{}, func(fr walFrame) error {
		var rec walEpochTickRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		epochs = append(epochs, rec.AssignEpoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return epochs, res
}

// wantPrefix asserts the replayed epochs are exactly 1..len(epochs) — the
// core recovery guarantee: a damaged journal always yields a strict prefix,
// never a reordered, skipped, or invented record.
func wantPrefix(t *testing.T, epochs []int64) {
	t.Helper()
	for i, e := range epochs {
		if e != int64(i+1) {
			t.Fatalf("replay is not a prefix: position %d holds epoch %d", i, e)
		}
	}
}

// TestWALScanRoundTrip: an undamaged journal replays every record in order.
func TestWALScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	buildTestWAL(t, dir, 25)
	epochs, res := replayTicks(t, dir)
	if len(epochs) != 25 || res.lastSeq != 25 || res.truncated {
		t.Fatalf("replayed %d lastSeq %d truncated %v, want 25/25/false", len(epochs), res.lastSeq, res.truncated)
	}
	wantPrefix(t, epochs)
}

// TestWALTornTailProperty: truncating the journal at ANY byte offset leaves
// a log that replays the longest complete prefix, repairs itself, and scans
// cleanly (no truncation) the second time.
func TestWALTornTailProperty(t *testing.T) {
	check := func(nRaw uint8, cutRaw uint16) bool {
		n := int(nRaw)%20 + 2
		dir := t.TempDir()
		path := buildTestWAL(t, dir, n)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(t, raw)
		cut := walFileHeaderLen + int(cutRaw)%(len(raw)-walFileHeaderLen)
		wantFrames := 0
		for _, e := range ends {
			if e <= cut {
				wantFrames++
			}
		}
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}

		epochs, res := replayTicks(t, dir)
		wantPrefix(t, epochs)
		if len(epochs) != wantFrames {
			t.Errorf("n=%d cut=%d: replayed %d frames, want %d", n, cut, len(epochs), wantFrames)
			return false
		}
		// A cut landing exactly on a frame boundary leaves no torn bytes —
		// the scan cannot (and must not) report truncation for a file that
		// simply ends cleanly early.
		atBoundary := cut == walFileHeaderLen
		for _, e := range ends {
			if e == cut {
				atBoundary = true
			}
		}
		if wantFrames < n && !atBoundary && !res.truncated {
			t.Errorf("n=%d cut=%d: tail was torn but scan did not report truncation", n, cut)
			return false
		}
		// The scan repaired the file: a second scan is clean and identical.
		epochs2, res2 := replayTicks(t, dir)
		if len(epochs2) != wantFrames || res2.truncated {
			t.Errorf("n=%d cut=%d: post-repair scan replayed %d truncated=%v", n, cut, len(epochs2), res2.truncated)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWALCorruptByteProperty: flipping ANY single byte past the file header
// ends the log at the frame holding that byte — everything before replays,
// nothing after does.
func TestWALCorruptByteProperty(t *testing.T) {
	check := func(nRaw uint8, posRaw uint16) bool {
		n := int(nRaw)%20 + 2
		dir := t.TempDir()
		path := buildTestWAL(t, dir, n)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(t, raw)
		pos := walFileHeaderLen + int(posRaw)%(len(raw)-walFileHeaderLen)
		// The frame containing the flipped byte is the first that must fail.
		wantFrames := 0
		for _, e := range ends {
			if e <= pos {
				wantFrames++
			}
		}
		raw[pos] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		epochs, res := replayTicks(t, dir)
		wantPrefix(t, epochs)
		if len(epochs) != wantFrames {
			t.Errorf("n=%d pos=%d: replayed %d frames, want %d", n, pos, len(epochs), wantFrames)
			return false
		}
		if !res.truncated {
			t.Errorf("n=%d pos=%d: corruption not reported as truncation", n, pos)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWALChainBreakDetected: a frame whose CRC is valid but whose chain
// value does not commit to its predecessors (a spliced or reordered record)
// is rejected with errWALBadChain.
func TestWALChainBreakDetected(t *testing.T) {
	var prev [32]byte
	payload := []byte(`{"assignEpoch":1}`)
	good := encodeWALFrame(walEpochTick, 1, payload, walChain(prev, walEpochTick, 1, payload))
	if _, _, err := decodeWALFrame(good, prev, 1); err != nil {
		t.Fatalf("good frame rejected: %v", err)
	}
	// Forge the chain value and recompute a valid CRC over the forged body —
	// only the chain check can catch this.
	bad := append([]byte(nil), good...)
	bad[len(bad)-5] ^= 0xff // inside chain[32]
	binary.BigEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, _, err := decodeWALFrame(bad, prev, 1); !errors.Is(err, errWALBadChain) {
		t.Fatalf("forged chain decoded with err=%v, want errWALBadChain", err)
	}
	// A sequence discontinuity is its own error.
	if _, _, err := decodeWALFrame(good, prev, 7); !errors.Is(err, errWALBadSeq) {
		t.Fatalf("wrong wantSeq decoded with err=%v, want errWALBadSeq", err)
	}
}

// TestWALConcurrentAppendHammer: many goroutines appending and waiting for
// durability concurrently must produce one gapless, chain-valid journal.
// (Run under -race in CI.)
func TestWALConcurrentAppendHammer(t *testing.T) {
	dir := t.TempDir()
	w, err := openControlWAL(dir, FsyncAlways, hpop.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seq, err := w.appendJSON(walEpochTick, walEpochTickRec{AssignEpoch: int64(g*perG + i)})
				if err != nil {
					t.Error(err)
					return
				}
				w.waitDurable(seq)
				if got := w.durableSeq(); got < seq {
					t.Errorf("waitDurable(%d) returned with durableSeq %d", seq, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	res, err := scanWALDir(dir, 0, [32]byte{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.lastSeq != goroutines*perG || res.replayed != goroutines*perG || res.truncated {
		t.Fatalf("scan: lastSeq %d replayed %d truncated %v, want %d/%d/false",
			res.lastSeq, res.replayed, res.truncated, goroutines*perG, goroutines*perG)
	}
}

// walOrigin builds an origin with a durable control plane in dir: WAL first
// (per the AttachWAL contract), then content and fleet.
func walOrigin(t *testing.T, dir string, opts WALOptions, peers int) *Origin {
	t.Helper()
	o := NewOrigin("x", WithRNG(sim.NewRNG(7)))
	if _, err := o.AttachWAL(dir, opts); err != nil {
		t.Fatal(err)
	}
	o.AddObject("/c", make([]byte, 400))
	o.AddObject("/a", make([]byte, 300))
	if err := o.AddPage(Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		o.RegisterPeer(fmt.Sprintf("peer-%02d", i), fmt.Sprintf("http://peer-%02d", i), 10)
	}
	return o
}

// recoverOrigin boots a fresh origin from dir alone — no content republish,
// no peer re-registration — so what the test observes is pure replay.
func recoverOrigin(t *testing.T, dir string, opts WALOptions) (*Origin, RecoveryStats) {
	t.Helper()
	o := NewOrigin("x", WithRNG(sim.NewRNG(7)))
	stats, err := o.AttachWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.AddObject("/c", make([]byte, 400))
	o.AddObject("/a", make([]byte, 300))
	if err := o.AddPage(Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	return o, stats
}

// TestOriginRecoveryExactlyOnce is the round-trip heart of the durable
// control plane: credits survive a crash exactly once, consumed nonces stay
// consumed, keys issued before the crash still verify records after it, and
// an anomaly suspension persists and keeps its peer out of fresh maps.
func TestOriginRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever}, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	rec := signedRecord(t, w, peer, 100, "nonce-1")
	if n := settlePerPeer(o, []UsageRecord{rec}); n != 1 {
		t.Fatalf("settled %d, want 1", n)
	}
	// A second peer over-claims; the anomaly verdict suspends it, and the
	// suspension is journaled as peer_suspend.
	cheat, wc := "", w
	for c := 0; cheat == ""; c++ {
		if c == 100 {
			t.Fatal("pooled maps name no second peer")
		}
		if wc, err = o.AssignWrapper("p", fmt.Sprintf("other-%d", c)); err != nil {
			t.Fatal(err)
		}
		for id := range wc.Keys {
			if id != peer && (cheat == "" || id < cheat) {
				cheat = id
			}
		}
	}
	overclaim(t, o, wc, cheat)
	// Crash: the origin is abandoned without Shutdown — no final snapshot,
	// the journal tail is all recovery has.

	o2, stats := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	if stats.RecordsReplayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != 100 {
		t.Fatalf("credited after recovery = %d, want exactly 100", got)
	}
	// Exactly-once: replaying the already-settled record must not re-credit.
	if n := settlePerPeer(o2, []UsageRecord{rec}); n != 0 {
		t.Fatal("recovered origin re-credited an already-settled record")
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != 100 {
		t.Fatalf("credited after replay attempt = %d, want 100", got)
	}
	// Key durability: a fresh record under the pre-crash key still settles.
	rec2 := signedRecord(t, w, peer, 50, "nonce-2")
	if n := settlePerPeer(o2, []UsageRecord{rec2}); n != 1 {
		t.Fatal("pre-crash key no longer verifies a fresh record")
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != 150 {
		t.Fatalf("credited after fresh settle = %d, want 150", got)
	}
	// Suspension durability: the cheat stays out of every fresh map.
	if !o2.AccountingFor(cheat).Suspended {
		t.Fatal("anomaly suspension lost across recovery")
	}
	for c := 0; c < 32; c++ {
		w, err := o2.AssignWrapper("p", fmt.Sprintf("fresh-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.Keys[cheat]; ok {
			t.Fatalf("suspended %s is back in a fresh map after recovery", cheat)
		}
	}
}

// TestMixedPeerSettleRecordReplays: journals written before a batch charged
// only its uploader hold settle records with PeerID "" whose maps and audit
// deltas name several peers. A cold recovery applies such a record as
// written — both peers' ledger and audit rows — and both record nonces stay
// consumed.
func TestMixedPeerSettleRecordReplays(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever}, 8)
	byPeer := make(map[string]UsageRecord)
	for c := 0; len(byPeer) < 2; c++ {
		if c == 100 {
			t.Fatal("pooled maps name fewer than two peers")
		}
		w, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		for id := range w.Keys {
			if _, ok := byPeer[id]; !ok && len(byPeer) < 2 {
				byPeer[id] = signedRecord(t, w, id, 100, "mixed-"+id)
			}
		}
	}
	var ids []string
	for id := range byPeer {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	p1, p2 := ids[0], ids[1]
	r1, r2 := byPeer[p1], byPeer[p2]
	// The payload as a parent journal holds it, audit deltas with the byte
	// statistics ("n", "mean", "m2") the auditor no longer keeps.
	payload := fmt.Sprintf(`{"peerId":"","atUnixNano":%d,"nonces":[%q,%q],`+
		`"credits":{%[4]q:100,%[5]q:100},"rejects":{%[4]q:1,%[5]q:2},"assigned":{%[4]q:1048576,%[5]q:2097152},`+
		`"audit":[{"peerId":%[4]q,"records":2,"rejects":1,"replays":0,"bytes":300,"n":2,"mean":150,"m2":5000},`+
		`{"peerId":%[5]q,"records":3,"rejects":2,"replays":1,"bytes":900,"n":3,"mean":300,"m2":20000}]}`,
		time.Now().UnixNano(), r1.KeyID+"|"+r1.Nonce, r2.KeyID+"|"+r2.Nonce, p1, p2)
	if _, err := o.wal.appendJSON(walSettle, json.RawMessage(payload)); err != nil {
		t.Fatal(err)
	}
	// Crash: the record exists only in the journal.

	o2, _ := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	rows := make(map[string]PeerAudit)
	for _, pa := range o2.Audit().Snapshot().Peers {
		rows[pa.PeerID] = pa
	}
	for _, want := range []struct {
		ledger Accounting
		audit  PeerAudit
	}{
		{Accounting{PeerID: p1, CreditedBytes: 100, AssignedBytes: 1 << 20, Rejected: 1},
			PeerAudit{PeerID: p1, Records: 2, Rejects: 1, ClaimedByte: 300}},
		{Accounting{PeerID: p2, CreditedBytes: 100, AssignedBytes: 2 << 20, Rejected: 2},
			PeerAudit{PeerID: p2, Records: 3, Rejects: 2, Replays: 1, ClaimedByte: 900}},
	} {
		if got := o2.AccountingFor(want.ledger.PeerID); got != want.ledger {
			t.Errorf("ledger row %+v, want %+v", got, want.ledger)
		}
		if got := rows[want.audit.PeerID]; !reflect.DeepEqual(got, want.audit) {
			t.Errorf("audit row %+v, want %+v", got, want.audit)
		}
	}
	for _, r := range []UsageRecord{r1, r2} {
		if n, _ := o2.SettleBatch(NewRecordBatch(r.PeerID, []UsageRecord{r})); n != 0 {
			t.Errorf("re-posted %s record credited after recovery", r.PeerID)
		}
	}
}

// TestParentSnapshotAuditRestores: snapshots written while the auditor kept
// byte statistics carry a population accumulator ("pop") and per-peer
// "stats" in their audit block, and a flagged peer's "flagged". Such a
// snapshot still restores: the evidence counters and the suspension come
// back, and the flagged peer, suspended, is absent from new maps. The flag
// itself is dropped, which changes nothing: every flagged peer was
// suspended too.
func TestParentSnapshotAuditRestores(t *testing.T) {
	dir := t.TempDir()
	state := `{"seq":5,"chainHex":"","contentEpoch":1,"assignEpoch":3,"takenAtUnixNano":1700000000000000000,` +
		`"peers":[{"id":"peer-00","url":"http://peer-00","rtt":10},{"id":"peer-01","url":"http://peer-01","rtt":10}],` +
		`"ledger":[{"id":"peer-00","credited":700,"assigned":1400,"rejected":0,"assignCount":2},` +
		`{"id":"peer-01","credited":0,"assigned":700,"rejected":4,"assignCount":1,"suspended":true}],` +
		`"keys":[],"nonces":[],` +
		`"audit":{"pop":{"n":6,"mean":383.3,"m2":25000},"peers":[` +
		`{"peerId":"peer-00","records":2,"rejects":0,"replays":0,"bytes":700,"stats":{"n":2,"mean":350,"m2":2000}},` +
		`{"peerId":"peer-01","records":4,"rejects":4,"replays":1,"bytes":1600,"stats":{"n":4,"mean":400,"m2":0},` +
		`"flagged":true,"offending":["0af7651916cd43dd8448eb211c80319c"]}]}}`
	if err := writeSnapshotFile(dir, 5, []byte(state)); err != nil {
		t.Fatal(err)
	}

	o := NewOrigin("x", WithRNG(sim.NewRNG(7)), WithHealthRegistry(hpop.NewHealthRegistry(hpop.BreakerConfig{})))
	stats, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	o.AddObject("/c", make([]byte, 400))
	o.AddObject("/a", make([]byte, 300))
	if err := o.AddPage(Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq != 5 {
		t.Fatalf("recovered from snapshot seq %d, want 5 (the parent-format snapshot was refused)", stats.SnapshotSeq)
	}
	want := []PeerAudit{
		{PeerID: "peer-01", Records: 4, Rejects: 4, Replays: 1, ClaimedByte: 1600,
			Offending: []string{"0af7651916cd43dd8448eb211c80319c"}},
		{PeerID: "peer-00", Records: 2, ClaimedByte: 700},
	}
	if got := o.Audit().Snapshot().Peers; !reflect.DeepEqual(got, want) {
		t.Errorf("audit rows %+v, want %+v", got, want)
	}
	if acc := o.AccountingFor("peer-01"); !acc.Suspended || acc.Rejected != 4 {
		t.Errorf("peer-01 ledger %+v, want suspended with 4 rejects", acc)
	}
	if acc := o.AccountingFor("peer-00"); acc.Suspended || acc.CreditedBytes != 700 {
		t.Errorf("peer-00 ledger %+v, want 700 B credited, not suspended", acc)
	}
	w, err := o.AssignWrapper("p", "client")
	if err != nil {
		t.Fatal(err)
	}
	if _, named := w.Keys["peer-01"]; named {
		t.Error("restored flagged peer-01 is named in a new map")
	}
}

// TestJournalKindRefused: a journal record of a kind this release does not
// write refuses the boot with errStateFormat, which names the file and the
// record's seq, and every file in the dir keeps its name and bytes.
// Skipped, the record would be lost: the next snapshots would erase it from
// disk. audit_flag (kind 5) is retired, and its replay suspended a peer;
// kind 99 stands for a newer release's journal after a rollback. Each
// follows a registered fleet and has a record after it.
func TestJournalKindRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     walRecType
		payload string
	}{
		{"audit_flag", 5, `{"id":"peer-01","cause":"audit_flag","assignEpoch":3}`},
		{"kind 99", 99, `{"from":"a newer release"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1}, 4)
			seq, err := o.wal.append(tc.typ, []byte(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			o.RegisterPeer("peer-04", "http://peer-04", 10)
			if err := o.wal.close(); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			_, err = NewOrigin("x").AttachWAL(dir, WALOptions{Fsync: FsyncNever})
			assertRefused(t, err, dir, before)
			if want := fmt.Sprintf("%s seq %d: ", walFileName(1), seq); !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not name %q", err, want)
			}
		})
	}
}

// TestOriginRecoveryStableAssignment: the recovered ring reproduces the same
// client→peer wrapper maps (assignment projection — keys and nonces are
// fresh by design).
func TestOriginRecoveryStableAssignment(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever}, 12)
	project := func(o *Origin, client string) string {
		w, err := o.AssignWrapper("p", client)
		if err != nil {
			t.Fatal(err)
		}
		s := w.Container.PeerID + "|" + w.Container.PeerURL
		for _, obj := range w.Objects {
			s += "|" + obj.Path + "=" + obj.PeerID + "@" + obj.PeerURL
		}
		return s
	}
	before := make(map[string]string)
	for i := 0; i < 6; i++ {
		c := fmt.Sprintf("client-%d", i)
		before[c] = project(o, c)
	}

	o2, _ := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	for c, want := range before {
		if got := project(o2, c); got != want {
			t.Fatalf("client %s assignment drifted across recovery:\n  before %s\n  after  %s", c, want, got)
		}
	}
}

// TestSnapshotCompactsAndRecovers: crossing the snapshot budget rotates the
// journal (old files deleted, snapshot written) and recovery from snapshot +
// tail equals recovery from the full log.
func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: 8}, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	total := int64(0)
	for i := 0; i < 30; i++ {
		rec := signedRecord(t, w, peer, 10, fmt.Sprintf("nonce-%d", i))
		if n := settlePerPeer(o, []UsageRecord{rec}); n != 1 {
			t.Fatalf("settle %d failed", i)
		}
		total += 10
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot written after 30 settlements (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName(1))); !os.IsNotExist(err) {
		t.Fatal("snapshot rotation left the seq-1 journal file behind")
	}

	o2, stats := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	if stats.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != total {
		t.Fatalf("credited after snapshot recovery = %d, want %d", got, total)
	}
	// The nonce window survived compaction: every consumed nonce, including
	// those only present in the snapshot (pre-rotation), still rejects.
	rec := signedRecord(t, w, peer, 10, "nonce-0")
	if n := settlePerPeer(o2, []UsageRecord{rec}); n != 0 {
		t.Fatal("snapshot recovery reopened a consumed nonce")
	}
}

// TestSnapshotFallbackOnCorruption: rotation retains the previous snapshot
// generation, so a corrupt newest snapshot falls back to the older one plus
// a longer journal replay — full state, not a zeroed ledger.
func TestSnapshotFallbackOnCorruption(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: 8}, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	total := int64(0)
	for i := 0; i < 30; i++ {
		rec := signedRecord(t, w, peer, 10, fmt.Sprintf("nonce-%d", i))
		if n := settlePerPeer(o, []UsageRecord{rec}); n != 1 {
			t.Fatalf("settle %d failed", i)
		}
		total += 10
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("retention kept %d snapshots, want >= 2 (err=%v)", len(snaps), err)
	}
	// Corrupt the newest snapshot (glob sorts lexically = by seq for the
	// fixed-width names); recovery must fall back, not fail or zero state.
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(newest, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	o2, stats := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	if stats.SnapshotSeq == 0 {
		t.Fatal("fallback recovery used no snapshot at all")
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != total {
		t.Fatalf("credited after fallback recovery = %d, want %d", got, total)
	}
	// The nonce window is also whole: records settled after the surviving
	// snapshot's cut still reject as replays via the journal tail.
	rec := signedRecord(t, w, peer, 10, "nonce-29")
	if n := settlePerPeer(o2, []UsageRecord{rec}); n != 0 {
		t.Fatal("fallback recovery reopened a consumed nonce")
	}
}

// TestJournalGapFailsLoudly: with every snapshot gone, the journal's missing
// prefix is a gap recovery cannot explain — AttachWAL must refuse loudly and
// leave the intact journal files on disk for manual repair, not truncate or
// delete them.
func TestJournalGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: 8}, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	for i := 0; i < 30; i++ {
		rec := signedRecord(t, w, peer, 10, fmt.Sprintf("nonce-%d", i))
		if n := settlePerPeer(o, []UsageRecord{rec}); n != 1 {
			t.Fatalf("settle %d failed", i)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	for _, s := range snaps {
		os.Remove(s)
	}
	logsBefore, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(logsBefore) == 0 {
		t.Fatal("no journal files survived rotation")
	}
	sizesBefore := make(map[string]int64, len(logsBefore))
	for _, p := range logsBefore {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizesBefore[p] = fi.Size()
	}

	o2 := NewOrigin("x", WithRNG(sim.NewRNG(7)))
	if _, err := o2.AttachWAL(dir, WALOptions{Fsync: FsyncNever}); !errors.Is(err, errWALUnrecoverable) {
		t.Fatalf("AttachWAL with missing snapshot = %v, want errWALUnrecoverable", err)
	}
	logsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(logsAfter) != len(logsBefore) {
		t.Fatalf("failed recovery deleted journal files: %d before, %d after", len(logsBefore), len(logsAfter))
	}
	for _, p := range logsAfter {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != sizesBefore[p] {
			t.Fatalf("failed recovery truncated %s: %d -> %d bytes", filepath.Base(p), sizesBefore[p], fi.Size())
		}
	}
}

// TestShutdownSnapshotThenCleanRecovery: a graceful Shutdown leaves a state
// where recovery replays zero journal records (everything is in the final
// snapshot) — the clean-restart fast path.
func TestShutdownSnapshotThenCleanRecovery(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever}, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	if n := settlePerPeer(o, []UsageRecord{signedRecord(t, w, peer, 100, "n1")}); n != 1 {
		t.Fatal("settle failed")
	}
	if err := o.Shutdown(); err != nil {
		t.Fatal(err)
	}

	o2, stats := recoverOrigin(t, dir, WALOptions{Fsync: FsyncNever})
	if stats.RecordsReplayed != 0 {
		t.Fatalf("clean restart replayed %d records, want 0 (snapshot covers all)", stats.RecordsReplayed)
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != 100 {
		t.Fatalf("credited after clean restart = %d, want 100", got)
	}
	if n := settlePerPeer(o2, []UsageRecord{signedRecord(t, w, peer, 100, "n1")}); n != 0 {
		t.Fatal("clean restart reopened a consumed nonce")
	}
}

// TestNonceWindowReanchoredOnRecovery: consumed-nonce timestamps are
// journaled in wall time and re-anchored on restore, so a fast restart does
// not shorten (or restart) the replay-rejection window. Past the window the
// record's key has expired, and the replay is rejected as late.
func TestNonceWindowReanchoredOnRecovery(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	now := base
	boot := func() *Origin {
		o := NewOrigin("x", WithRNG(sim.NewRNG(7)), WithClock(func() time.Time { return now }))
		if _, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever}); err != nil {
			t.Fatal(err)
		}
		return o
	}
	o := boot()
	o.AddObject("/c", make([]byte, 400))
	if err := o.AddPage(Page{Name: "p", Container: "/c"}); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("peer-00", "http://peer-00", 10)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	rec := signedRecord(t, w, "peer-00", 100, "n1")
	if n := settlePerPeer(o, []UsageRecord{rec}); n != 1 {
		t.Fatal("settle failed")
	}
	o.wal.close()

	// Restart 5 fake minutes later — inside the nonce window. The nonce
	// must still be consumed.
	now = base.Add(5 * time.Minute)
	o2 := boot()
	if err := o2.nonces.Use("k|n1-not-used"); err != nil {
		t.Fatalf("fresh nonce rejected: %v", err)
	}
	if err := o2.nonces.Use(rec.KeyID + "|" + rec.Nonce); err == nil {
		t.Fatal("recovered origin accepted a nonce consumed 5m ago (window re-anchored wrong)")
	}
	o2.wal.close()

	// At +30 minutes the nonce has aged out, and the key has expired.
	now = base.Add(30 * time.Minute)
	o3 := boot()
	defer o3.wal.close()
	if n, err := o3.SettleBatch(NewRecordBatch("peer-00", []UsageRecord{rec})); n != 0 || !errors.Is(err, auth.ErrExpired) {
		t.Fatalf("replay at +30m: credited %d, %v; want a rejection for an expired key", n, err)
	}
	if got := o3.AccountingFor("peer-00").CreditedBytes; got != 100 {
		t.Fatalf("credited after the replay = %d, want 100", got)
	}
}

// TestRecordSpoolCountsFailedWrites: an append whose flush fails counts in
// nocdn.peer.spool_errors and not in spool_appends, and so does every later
// one until a rewrite reopens the file; a rewrite that cannot write its
// temporary file counts too, and leaves the appends failing.
func TestRecordSpoolCountsFailedWrites(t *testing.T) {
	dir := t.TempDir()
	m := hpop.NewMetrics()
	p := NewPeer("peer-a", 1<<20)
	p.SetMetrics(m)
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	defer p.CloseRecordSpool()
	counts := func(appends, errs float64) {
		t.Helper()
		if a, e := m.Counter("nocdn.peer.spool_appends"), m.Counter("nocdn.peer.spool_errors"); a != appends || e != errs {
			t.Fatalf("spool_appends %v, spool_errors %v; want %v, %v", a, e, appends, errs)
		}
	}
	s := p.spool
	s.append(spoolLeaf(1, "n0"))
	counts(1, 0)
	s.f.Close() // the handle dies under the spool
	s.append(spoolLeaf(2, "n1"))
	s.append(spoolLeaf(3, "n2"))
	counts(1, 2)

	tmp := filepath.Join(dir, spoolFileName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil { // a rewrite cannot create its file
		t.Fatal(err)
	}
	s.rewrite([]string{spoolLeaf(1, "n0")})
	s.append(spoolLeaf(4, "n3"))
	counts(1, 4)

	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	s.rewrite([]string{spoolLeaf(1, "n0")})
	s.append(spoolLeaf(5, "n4"))
	counts(2, 4)
	if got, want := dirFiles(t, dir)[spoolFileName], spoolLeaf(1, "n0")+"\n"+spoolLeaf(5, "n4")+"\n"; got != want {
		t.Errorf("spool = %q, want %q", got, want)
	}
}

// TestRecordSpoolRoundTrip: AttachRecordSpool requeues a spool of leaves,
// one a line, in order. An unterminated last line is the torn tail a crash
// mid-append leaves, and it is dropped. It is torn inside a leaf's
// signature, where the cut leaf still parses: only its missing '\n' marks
// it torn. A complete line that is not a leaf — one in the middle of the
// file, or the JSON lines older peers spooled (testdata/parent_records.spool)
// — refuses the attach with errStateFormat: nothing is queued, and the file
// keeps its bytes.
func TestRecordSpoolRoundTrip(t *testing.T) {
	leaves := func(from, to int) (out []string) {
		for i := from; i < to; i++ {
			out = append(out, spoolLeaf(int64(i+1), fmt.Sprintf("n%d", i)))
		}
		return out
	}
	lines := func(leaves []string) string { return strings.Join(leaves, "\n") + "\n" }
	torn := spoolLeaf(4, "n3")
	torn = torn[:len(torn)-10]
	if _, err := parseLeaf(torn); err != nil {
		t.Fatalf("the cut leaf does not parse (%v); the tear tests nothing", err)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent_records.spool"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		spool string
		want  []string // nil: refused
	}{
		{"torn tail", lines(leaves(0, 3)) + torn, leaves(0, 3)},
		{"bad line", lines(leaves(0, 2)) + "not a leaf\n" + lines(leaves(2, 5)), nil},
		{"parent_records.spool", string(parent), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, spoolFileName), []byte(tc.spool), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			p := NewPeer("peer-a", 1<<20)
			err := p.AttachRecordSpool(dir)
			if tc.want == nil {
				assertRefused(t, err, dir, before)
				if n := p.PendingRecords(); n != 0 {
					t.Errorf("the refused spool queued %d records", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer p.CloseRecordSpool()
			p.recordsMu.Lock()
			got := slices.Clone(p.lanes["x"].records)
			p.recordsMu.Unlock()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("requeued %q, want %q", got, tc.want)
			}
			if after := dirFiles(t, dir)[spoolFileName]; after != lines(tc.want) {
				t.Errorf("spool after attach = %q, want the requeued leaves", after)
			}
		})
	}
}

// spoolLeaf is the leaf of a signed record for provider x at peer-a.
func spoolLeaf(n int64, nonce string) string {
	rec := UsageRecord{Provider: "x", PeerID: "peer-a", Bytes: n, Nonce: nonce}
	rec.Sign([]byte("spool test key"))
	return string(rec.LeafBytes())
}

// TestPeerAttachRecordSpoolRequeues: a peer booted over an existing spool
// requeues the records into its pending queue, and CloseRecordSpool persists
// the queue for the next boot.
func TestPeerAttachRecordSpoolRequeues(t *testing.T) {
	dir := t.TempDir()
	s, _, err := openRecordSpool(dir, hpop.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.append(spoolLeaf(int64(i), fmt.Sprintf("n%d", i)))
	}
	s.close()

	p := NewPeer("peer-a", 1<<20)
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	if got := p.PendingRecords(); got != 5 {
		t.Fatalf("peer requeued %d records, want 5", got)
	}
	p.CloseRecordSpool()

	// Second boot sees the same queue (compacted, not duplicated).
	p2 := NewPeer("peer-a", 1<<20)
	if err := p2.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	if got := p2.PendingRecords(); got != 5 {
		t.Fatalf("second boot requeued %d records, want 5", got)
	}
	p2.CloseRecordSpool()
}

// TestStateDirOwnerOnly: the journal and snapshots hold the origin secret,
// so after AttachWAL on a state dir made world-readable, as earlier builds
// made it, neither the dir nor any file written into it has group or other
// permission bits.
func TestStateDirOwnerOnly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no POSIX permission bits")
	}
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	o := NewOrigin("x", WithRNG(sim.NewRNG(7)))
	if _, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever}); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("peer-00", "http://peer-00", 10)
	if err := o.Shutdown(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("AttachWAL and Shutdown wrote nothing")
	}
	paths := []string{dir}
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm&0o077 != 0 {
			t.Errorf("%s has mode %v, want no group or other bits", p, perm)
		}
	}
}
