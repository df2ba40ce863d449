package cdntest

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// This suite is the kill-and-recover half of the acceptance tests: it boots
// a real origin with a durable control plane (WAL + snapshots) over HTTP,
// drives Merkle-committed settlement traffic against it like a peer fleet
// would, kills the origin without any shutdown (the in-process equivalent of
// SIGKILL: the journal tail on disk is all that survives), restarts it from
// the same state directory, and asserts the money invariants:
//
//   - exactly-once credit: no acked settlement is lost, none is applied twice
//   - in-doubt batches (ack lost in the crash) retry safely — 200 if they
//     never settled, 400 replay if they did, identical final credit either way
//   - the replay-nonce window survives, so pre-crash uploads cannot re-settle
//   - suspensions and audit evidence persist
//   - the fleet converges: recovered origins serve byte-stable wrapper maps
//     and settle fresh traffic immediately
//
// Everything runs over the HTTP surface (wrapper fetch, /usage/batch,
// /accounting, /debug/audit, /debug/wal) — no reaching into origin state on
// the assert path beyond what an operator could curl.

// chaosOrigin boots one origin with a durable control plane in dir — the
// same construction the daemon performs on every (re)start: attach the WAL
// first, then republish content and re-register the static fleet.
func chaosOrigin(t *testing.T, dir string, seed uint64) (*nocdn.Origin, *httptest.Server, nocdn.RecoveryStats) {
	t.Helper()
	o := nocdn.NewOrigin("chaos.example", nocdn.WithRNG(sim.NewRNG(seed)))
	stats, err := o.AttachWAL(dir, nocdn.WALOptions{Fsync: nocdn.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	o.AddObject("/index.html", bytes.Repeat([]byte("c"), 400))
	o.AddObject("/app.js", bytes.Repeat([]byte("j"), 300))
	if err := o.AddPage(nocdn.Page{Name: "index", Container: "/index.html", Embedded: []string{"/app.js"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		o.RegisterPeer(fmt.Sprintf("peer-%d", i), fmt.Sprintf("http://peer-%d.invalid", i), float64(10+i))
	}
	srv := httptest.NewServer(o.Handler())
	return o, srv, stats
}

// krWrapper pulls one pooled wrapper map over HTTP.
func krWrapper(t *testing.T, baseURL, client string) *nocdn.Wrapper {
	t.Helper()
	resp, err := http.Get(baseURL + "/wrapper?page=index&client=" + client)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /wrapper: %d %s", resp.StatusCode, body)
	}
	var w nocdn.Wrapper
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatal(err)
	}
	return &w
}

// assignProjection reduces a wrapper to its assignment decision — who serves
// what — stripping the per-issue fields (keys, nonce, timestamps) that are
// fresh by design. Byte-stable recovery means this projection is identical
// for the same client before and after a crash.
func assignProjection(w *nocdn.Wrapper) string {
	s := w.Container.Path + "=" + w.Container.PeerID
	for _, obj := range w.Objects {
		s += "|" + obj.Path + "=" + obj.PeerID
	}
	return s
}

// buildBatch signs n usage records under one of the wrapper's keys and
// commits them under a Merkle root, exactly as a flushing peer does. Claims
// are uniform 10-byte serves: honest traffic in this suite must stay well
// clear of the anomaly ratio (credited against assigned bytes), so any
// suspension the assertions see is a durability bug, not an audit false
// positive.
func buildBatch(t *testing.T, w *nocdn.Wrapper, rng *sim.RNG, nonceBase string, n int) (nocdn.RecordBatch, int64) {
	t.Helper()
	ids := make([]string, 0, len(w.Keys))
	for id := range w.Keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	peerID := ids[rng.Intn(len(ids))]
	key := w.Keys[peerID]
	secret, err := hex.DecodeString(key.Secret)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	records := make([]nocdn.UsageRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := nocdn.UsageRecord{
			Provider: "chaos.example",
			PeerID:   peerID,
			KeyID:    key.KeyID,
			Page:     "index",
			Bytes:    10,
			Objects:  1,
			Nonce:    fmt.Sprintf("%s-%d", nonceBase, i),
			IssuedAt: time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC),
		}
		rec.Sign(secret)
		total += rec.Bytes
		records = append(records, rec)
	}
	return nocdn.NewRecordBatch(peerID, records), total
}

// postBatch uploads one settlement batch, returning status and body.
func postBatch(baseURL string, b nocdn.RecordBatch) (int, string, error) {
	body, err := nocdn.EncodeBatch(b)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.Post(baseURL+"/usage/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out), nil
}

// creditedFor reads one peer's ledger row over HTTP.
func creditedFor(t *testing.T, baseURL, peerID string) (credited int64, suspended bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/accounting?peer=" + peerID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acct nocdn.Accounting
	if err := json.NewDecoder(resp.Body).Decode(&acct); err != nil {
		t.Fatal(err)
	}
	return acct.CreditedBytes, acct.Suspended
}

// tearWALTail appends a partial frame to the newest journal file — the torn
// write a power cut leaves mid-append. Everything fsynced (every acked
// settlement under FsyncAlways) precedes it, so recovery must cut the tail
// without losing a single acked record.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no journal files to tear (err=%v)", err)
	}
	sort.Strings(logs)
	f, err := os.OpenFile(logs[len(logs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hWL1\x03\x00\x00\x00\x00\x00"))
	f.Close()
}

// TestKillRecoverChaos runs the kill-and-recover scenario under three seeds:
// settle several acked batches, race one final batch against the kill (its
// ack is considered lost), crash, tear the journal tail, recover, and assert
// exactly-once credit plus fleet convergence.
func TestKillRecoverChaos(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1337} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runKillRecover(t, seed)
		})
	}
}

func runKillRecover(t *testing.T, seed uint64) {
	dir := t.TempDir()
	rng := sim.NewRNG(seed)
	_, srv, _ := chaosOrigin(t, dir, seed)

	// Phase 1: acked traffic. Every 200 here is a durability promise.
	expected := make(map[string]int64)
	stableClient := "client-stable"
	beforeProjection := assignProjection(krWrapper(t, srv.URL, stableClient))
	rounds := 3 + rng.Intn(4)
	for r := 0; r < rounds; r++ {
		w := krWrapper(t, srv.URL, fmt.Sprintf("client-%d", r))
		batch, total := buildBatch(t, w, rng, fmt.Sprintf("s%d-r%d", seed, r), rng.Intn(6)+2)
		status, body, err := postBatch(srv.URL, batch)
		if err != nil || status != http.StatusOK {
			t.Fatalf("round %d: POST /usage/batch: %d %s (%v)", r, status, body, err)
		}
		expected[batch.PeerID] += total
	}

	// Phase 2: the in-doubt batch. Its upload races the kill — the client
	// never trusts the ack. After recovery the retry must land exactly once.
	wLast := krWrapper(t, srv.URL, "client-indoubt")
	lastBatch, lastTotal := buildBatch(t, wLast, rng, fmt.Sprintf("s%d-indoubt", seed), rng.Intn(6)+2)
	posted := make(chan error, 1)
	go func() {
		_, _, err := postBatch(srv.URL, lastBatch)
		posted <- err
	}()
	// Kill: the server drains in-flight handlers and dies; the origin object
	// is abandoned with no Shutdown — its only legacy is the journal.
	srv.Close()
	<-posted
	expected[lastBatch.PeerID] += lastTotal

	// A power cut also tears whatever frame was mid-write.
	tearWALTail(t, dir)

	// Phase 3: recover and audit the books.
	o2, srv2, stats := chaosOrigin(t, dir, seed)
	defer srv2.Close()
	defer o2.Shutdown()
	if !stats.TruncatedTail {
		t.Fatal("recovery did not report the torn journal tail")
	}
	if stats.RecordsReplayed == 0 {
		t.Fatal("recovery replayed nothing")
	}

	// Retry the in-doubt batch: 200 if the kill beat the settle, 400 replay
	// if the settle won. Both are terminal for the peer.
	status, body, err := postBatch(srv2.URL, lastBatch)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK && status != http.StatusBadRequest {
		t.Fatalf("in-doubt retry: status %d %s, want 200 or 400", status, body)
	}

	// Exactly-once: per-peer credit equals bytes submitted, no more, no less.
	for peerID, want := range expected {
		credited, suspended := creditedFor(t, srv2.URL, peerID)
		if credited != want {
			t.Fatalf("peer %s credited %d after recovery, want exactly %d (retry status %d)",
				peerID, credited, want, status)
		}
		if suspended {
			t.Fatalf("peer %s suspended after honest traffic", peerID)
		}
	}

	// Replay attack: re-uploading an acked pre-crash batch must bounce.
	// (Phase 1 acks were trusted, so a second credit is theft.)
	wReplay := krWrapper(t, srv2.URL, "client-0")
	_ = wReplay
	replayStatus, _, err := postBatch(srv2.URL, lastBatch)
	if err != nil {
		t.Fatal(err)
	}
	if replayStatus != http.StatusBadRequest {
		t.Fatalf("replayed batch got %d, want 400", replayStatus)
	}

	// Byte-stable assignment: the same client maps to the same peers.
	afterProjection := assignProjection(krWrapper(t, srv2.URL, stableClient))
	if afterProjection != beforeProjection {
		t.Fatalf("assignment drifted across recovery:\n  before %s\n  after  %s", beforeProjection, afterProjection)
	}

	// Convergence: fresh traffic settles first try on the recovered origin.
	wNew := krWrapper(t, srv2.URL, "client-fresh")
	freshBatch, freshTotal := buildBatch(t, wNew, rng, fmt.Sprintf("s%d-fresh", seed), 3)
	status, body, err = postBatch(srv2.URL, freshBatch)
	if err != nil || status != http.StatusOK {
		t.Fatalf("fresh batch after recovery: %d %s (%v)", status, body, err)
	}
	credited, _ := creditedFor(t, srv2.URL, freshBatch.PeerID)
	if credited != expected[freshBatch.PeerID]+freshTotal {
		t.Fatalf("fresh settle credited %d, want %d", credited, expected[freshBatch.PeerID]+freshTotal)
	}

	// /debug/wal reads as a live, recovered control plane.
	resp, err := http.Get(srv2.URL + "/debug/wal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws nocdn.WALStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	if !ws.Attached || !ws.Recovery.TruncatedTail || ws.LastSeq == 0 {
		t.Fatalf("/debug/wal = %+v, want attached with recorded truncated-tail recovery", ws)
	}
}

// TestKillRecoverFlaggedPeerFault: a peer suspended for over-claiming —
// the ledger's anomaly verdict, journaled as peer_suspend — stays suspended
// across a kill and out of fresh maps, with its credit and its audit
// evidence intact: a crash must never quietly readmit a cheater.
func TestKillRecoverFlaggedPeerFault(t *testing.T) {
	dir := t.TempDir()
	_, srv, _ := chaosOrigin(t, dir, 42)
	w := krWrapper(t, srv.URL, "cheat-client")
	cheat := ""
	for id := range w.Keys {
		if cheat == "" || id < cheat {
			cheat = id
		}
	}
	secret, err := hex.DecodeString(w.Keys[cheat].Secret)
	if err != nil {
		t.Fatal(err)
	}
	// The one serve assigned the cheat claim bytes; two records each
	// claiming all of them credit twice that, past the anomaly factor.
	var claim int64
	for _, ref := range append([]nocdn.ObjectRef{w.Container}, w.Objects...) {
		if ref.PeerID == cheat {
			claim += int64(ref.Size)
		}
	}
	var records []nocdn.UsageRecord
	for i := 0; i < 2; i++ {
		rec := nocdn.UsageRecord{
			Provider: "chaos.example", PeerID: cheat, KeyID: w.Keys[cheat].KeyID, Page: "index",
			Bytes: claim, Objects: 1, Nonce: fmt.Sprintf("over-%d", i), IssuedAt: time.Now(),
		}
		rec.Sign(secret)
		records = append(records, rec)
	}
	if status, body, err := postBatch(srv.URL, nocdn.NewRecordBatch(cheat, records)); err != nil || status != http.StatusOK {
		t.Fatalf("over-claiming batch: %d %s (%v)", status, body, err)
	}
	if _, suspended := creditedFor(t, srv.URL, cheat); !suspended {
		t.Fatalf("over-claiming did not suspend %s pre-crash", cheat)
	}
	srv.Close() // kill: no Shutdown, no final snapshot

	o2, srv2, _ := chaosOrigin(t, dir, 42)
	defer srv2.Close()
	defer o2.Shutdown()
	credited, suspended := creditedFor(t, srv2.URL, cheat)
	if !suspended {
		t.Fatal("suspension lost across recovery")
	}
	if credited != 2*claim {
		t.Fatalf("credited after recovery = %d, want %d", credited, 2*claim)
	}
	for c := 0; c < 16; c++ {
		if _, ok := krWrapper(t, srv2.URL, fmt.Sprintf("fresh-%d", c)).Keys[cheat]; ok {
			t.Fatalf("suspended %s is back in a fresh map after recovery", cheat)
		}
	}
	resp, err := http.Get(srv2.URL + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap nocdn.AuditSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var row *nocdn.PeerAudit
	for i := range snap.Peers {
		if snap.Peers[i].PeerID == cheat {
			row = &snap.Peers[i]
		}
	}
	if row == nil || row.Records != 2 || row.ClaimedByte != 2*claim || row.Flagged {
		t.Fatalf("/debug/audit row for %s after recovery: %+v; want 2 records, %d claimed bytes, not flagged", cheat, row, 2*claim)
	}
}
