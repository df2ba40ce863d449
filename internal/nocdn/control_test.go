package nocdn

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// controlOrigin builds an origin with content and a registered fleet, the
// shared fixture for the pooled-assignment and batch-settlement tests.
func controlOrigin(t testing.TB, peers int, opts ...OriginOption) *Origin {
	t.Helper()
	o := NewOrigin("x", append([]OriginOption{WithRNG(sim.NewRNG(7))}, opts...)...)
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

// wrapperPeers collects the distinct peer IDs a wrapper names.
func wrapperPeers(w *Wrapper) map[string]bool {
	out := make(map[string]bool, len(w.Keys))
	for id := range w.Keys {
		out[id] = true
	}
	return out
}

// signedRecord crafts a valid usage record under one of a wrapper's keys.
func signedRecord(t testing.TB, w *Wrapper, peerID string, bytes int64, nonce string) UsageRecord {
	t.Helper()
	k, ok := w.Keys[peerID]
	if !ok {
		t.Fatalf("wrapper has no key for %s (has %v)", peerID, w.Keys)
	}
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		t.Fatal(err)
	}
	r := UsageRecord{
		Provider: "x", PeerID: peerID, KeyID: k.KeyID,
		Page: "p", Bytes: bytes, Objects: 1, Nonce: nonce, IssuedAt: time.Now(),
	}
	r.Sign(secret)
	return r
}

// settlePerPeer settles records as one committed batch per peer they name,
// peers in order of first appearance, and returns how many were credited. A
// rejected or replayed batch credits nothing.
func settlePerPeer(o *Origin, records []UsageRecord) int {
	var order []string
	byPeer := make(map[string][]UsageRecord)
	for _, r := range records {
		if _, ok := byPeer[r.PeerID]; !ok {
			order = append(order, r.PeerID)
		}
		byPeer[r.PeerID] = append(byPeer[r.PeerID], r)
	}
	credited := 0
	for _, id := range order {
		n, _ := o.SettleBatch(NewRecordBatch(id, byPeer[id]))
		credited += n
	}
	return credited
}

// overclaim settles, as one batch from peerID, validly signed records that
// each claim the whole budget of peerID's key in w, until the peer's credit
// passes anomalyFactor times its assigned bytes. The ledger's anomaly
// verdict suspends it — the one verdict settlement takes.
func overclaim(t testing.TB, o *Origin, w *Wrapper, peerID string) {
	t.Helper()
	k, ok := parseKeyID(w.Keys[peerID].KeyID)
	if !ok {
		t.Fatalf("%s's key ID %q does not parse", peerID, w.Keys[peerID].KeyID)
	}
	acct := o.AccountingFor(peerID)
	var records []UsageRecord
	for credit := acct.CreditedBytes; float64(credit) <= anomalyFactor*float64(acct.AssignedBytes); credit += k.MaxBytes {
		records = append(records, signedRecord(t, w, peerID, k.MaxBytes, fmt.Sprintf("overclaim-%s-%d", peerID, len(records))))
	}
	if n := settlePerPeer(o, records); n != len(records) {
		t.Fatalf("over-claiming batch credited %d of %d records", n, len(records))
	}
	if !o.AccountingFor(peerID).Suspended {
		t.Fatalf("over-claiming peer %s not suspended: %+v", peerID, o.AccountingFor(peerID))
	}
}

// anyPeer returns one peer a wrapper names (deterministic: smallest ID).
func anyPeer(w *Wrapper) string {
	best := ""
	for id := range w.Keys {
		if best == "" || id < best {
			best = id
		}
	}
	return best
}

// TestAssignWrapperStableWithinEpoch: the same client and page hit the same
// pooled map across requests — no rebuild, identical peer set — while every
// serve still charges the assigned-bytes ledger.
func TestAssignWrapperStableWithinEpoch(t *testing.T) {
	o := controlOrigin(t, 20)
	w1, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	builds := o.WrapperGenerations()
	if builds != 1 {
		t.Fatalf("first serve took %d builds, want 1", builds)
	}
	peer := anyPeer(w1)
	assignedAfterOne := o.AccountingFor(peer).AssignedBytes
	if assignedAfterOne == 0 {
		t.Fatal("serve did not charge assigned bytes")
	}
	for i := 0; i < 10; i++ {
		w, err := o.AssignWrapper("p", "client-a")
		if err != nil {
			t.Fatal(err)
		}
		if w != w1 {
			t.Fatalf("serve %d rebuilt the wrapper within the epoch", i)
		}
	}
	if got := o.WrapperGenerations(); got != builds {
		t.Fatalf("pooled serves generated wrappers: %d -> %d", builds, got)
	}
	// Per-serve charging: 11 serves of the same map = 11x the bytes.
	if got := o.AccountingFor(peer).AssignedBytes; got != 11*assignedAfterOne {
		t.Fatalf("assigned = %d after 11 serves, want %d", got, 11*assignedAfterOne)
	}
}

// TestPooledServeChargeAllocatesNothing: a pooled map carries its charges
// summed per peer, so charging the ledger for one serve of it allocates
// nothing once the peers it names have rows.
func TestPooledServeChargeAllocatesNothing(t *testing.T) {
	o := controlOrigin(t, 20, WithChunking(4, 100))
	e, err := o.assignEntry("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.w.Keys) < 2 {
		t.Fatalf("map names %d peers, want several", len(e.w.Keys))
	}
	if allocs := testing.AllocsPerRun(100, func() { o.ledger.assignCharges(e.charges) }); allocs != 0 {
		t.Errorf("charging a pooled serve allocates %v times, want 0", allocs)
	}
}

// TestAssignWrapperSlotting: distinct clients spread over pool slots but
// each client's slot is deterministic, so two requests from the same client
// always agree even interleaved with other clients.
func TestAssignWrapperSlotting(t *testing.T) {
	o := controlOrigin(t, 20)
	first := make(map[string]*Wrapper)
	for round := 0; round < 3; round++ {
		for c := 0; c < 40; c++ {
			client := fmt.Sprintf("client-%d", c)
			w, err := o.AssignWrapper("p", client)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := first[client]; ok && prev != w {
				t.Fatalf("client %s saw two different maps within an epoch", client)
			}
			first[client] = w
		}
	}
	if builds := o.WrapperGenerations(); builds > int64(DefaultPoolSlots) {
		t.Fatalf("%d builds for %d slots — pool not bounding generation", builds, DefaultPoolSlots)
	}
}

// TestAssignWrapperPublishInvalidates: a publish advances the content epoch
// and the next serve rebuilds (pooled maps are hash-epoch authorities); with
// the epoch stable again reuse resumes, and a header override — published
// content too — invalidates the same way.
func TestAssignWrapperPublishInvalidates(t *testing.T) {
	o := controlOrigin(t, 8)
	w1, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	o.AddObject("/c", make([]byte, 500))
	w2, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if w2 == w1 {
		t.Fatal("pooled wrapper survived a publish")
	}
	if w2.Container.Size != 500 {
		t.Fatalf("rebuilt wrapper container size = %d, want 500", w2.Container.Size)
	}
	if w3, _ := o.AssignWrapper("p", "client-a"); w3 != w2 {
		t.Fatal("wrapper not reused after the epoch settled")
	}
	o.SetObjectHeader("/c", "Cache-Control", "no-store")
	if w4, _ := o.AssignWrapper("p", "client-a"); w4 == w2 {
		t.Fatal("pooled wrapper survived a header publish")
	}
}

// TestAssignWrapperEjectionPullsPeer: suspending a peer (here through the
// anomaly verdict on an over-claiming batch) must pull it from pooled maps
// on the very next serve — before any epoch tick.
func TestAssignWrapperEjectionPullsPeer(t *testing.T) {
	o := controlOrigin(t, 10)
	w1, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	victim := anyPeer(w1)
	overclaim(t, o, w1, victim)
	w2, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if w2 == w1 {
		t.Fatal("pooled map naming an ejected peer was served again")
	}
	if wrapperPeers(w2)[victim] {
		t.Fatalf("rebuilt map still names ejected peer %s", victim)
	}
}

// TestAssignWrapperUnhealthyPeerRebuild: a health-registry failure verdict
// (breaker open) on a pooled peer forces a rebuild excluding it — the
// serve-time revalidation, not just build-time filtering.
func TestAssignWrapperUnhealthyPeerRebuild(t *testing.T) {
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{MinSamples: 1, Cooldown: time.Hour})
	o := controlOrigin(t, 10, WithHealthRegistry(h))
	w1, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	victim := anyPeer(w1)
	h.RecordFailure(victim)
	if h.Healthy(victim) {
		t.Fatal("breaker did not open on failure (test config)")
	}
	w2, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if w2 == w1 || wrapperPeers(w2)[victim] {
		t.Fatalf("unhealthy peer %s still served from the pool", victim)
	}
}

// TestEpochTickRefreshesPool: the tick rebuilds pooled maps eagerly, so the
// first serve after it is a pool hit (no build on the request path), and a
// fleet change that happened between ticks is reflected.
func TestEpochTickRefreshesPool(t *testing.T) {
	o := controlOrigin(t, 5)
	w1, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	o.EpochTick()
	builds := o.WrapperGenerations()
	w2, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if w2 == w1 {
		t.Fatal("tick did not refresh the pooled map")
	}
	for id, k := range w2.Keys {
		if k.KeyID == w1.Keys[id].KeyID {
			t.Fatalf("refreshed map reuses peer %s's old short-term key", id)
		}
	}
	if got := o.WrapperGenerations(); got != builds {
		t.Fatalf("serve after tick built a wrapper (%d -> %d): generation on the hot path", builds, got)
	}
}

// TestSettleBatchCreditsAndReplays: a committed batch settles every record,
// each signature verified, accounting matches, and replaying the batch
// (same root) or an individual nonce is rejected.
func TestSettleBatchCreditsAndReplays(t *testing.T) {
	o := controlOrigin(t, 4)
	w, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	records := make([]UsageRecord, 5)
	for i := range records {
		records[i] = signedRecord(t, w, peer, 10+int64(i), fmt.Sprintf("n-%d", i))
	}
	b := NewRecordBatch(peer, records)
	n, err := o.SettleBatch(b)
	if err != nil || n != 5 {
		t.Fatalf("SettleBatch = %d, %v; want 5, nil", n, err)
	}
	wantCredit := int64(10 + 11 + 12 + 13 + 14)
	if got := o.AccountingFor(peer).CreditedBytes; got != wantCredit {
		t.Fatalf("credited %d bytes, want %d", got, wantCredit)
	}
	// Whole-batch replay: the root nonce blocks before any record settles.
	if n, err := o.SettleBatch(b); err == nil || n != 0 {
		t.Fatalf("replayed batch settled %d records, err=%v", n, err)
	}
	if got := o.AccountingFor(peer).CreditedBytes; got != wantCredit {
		t.Fatalf("replay moved credits to %d", got)
	}
	// Single-record replay inside a fresh batch: batch accepted, record not.
	replay := []UsageRecord{
		records[0],
		signedRecord(t, w, peer, 20, "fresh-nonce"),
	}
	n, err = o.SettleBatch(NewRecordBatch(peer, replay))
	if !errors.Is(err, auth.ErrReplayed) || errors.Is(err, ErrBadBatch) || n != 1 {
		t.Fatalf("replay-containing batch = %d, %v; want 1, ErrReplayed", n, err)
	}
	if got := o.AccountingFor(peer).CreditedBytes; got != wantCredit+20 {
		t.Fatalf("credited %d, want %d", got, wantCredit+20)
	}
}

// TestSettleBatchRootMismatch: tampering a record after committing to the
// root rejects the whole batch without consuming any nonce — the same
// records settle fine afterwards under an honest root.
func TestSettleBatchRootMismatch(t *testing.T) {
	o := controlOrigin(t, 4)
	w, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	records := []UsageRecord{
		signedRecord(t, w, peer, 30, "rm-0"),
		signedRecord(t, w, peer, 40, "rm-1"),
	}
	tampered := append([]UsageRecord(nil), records...)
	b := NewRecordBatch(peer, tampered)
	b.Records[1].Bytes = 400000 // inflate after committing
	n, err := o.SettleBatch(b)
	if !errors.Is(err, ErrBadBatch) || n != 0 {
		t.Fatalf("tampered batch = %d, %v; want 0, ErrBadBatch", n, err)
	}
	if got := o.AccountingFor(peer).CreditedBytes; got != 0 {
		t.Fatalf("tampered batch credited %d bytes", got)
	}
	// The rejection consumed no nonces: the honest batch still settles.
	if n, err := o.SettleBatch(NewRecordBatch(peer, records)); err != nil || n != 2 {
		t.Fatalf("honest batch after rejection = %d, %v; want 2, nil", n, err)
	}
}

// TestUnregisteredUploaderLeavesNoRow: a batch that proves nothing writes
// nothing. Anonymous POST /usage/batch uploads under 1,000 made-up peer IDs
// — for each, one whose root does not recompute and one under a made-up
// key — and one root mismatch from a registered peer all answer 400, and
// leave no ledger row, no audit row, no journal record, and nothing in the
// next snapshot.
func TestUnregisteredUploaderLeavesNoRow(t *testing.T) {
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1}, 4)
	setupSeq, _ := o.wal.position()
	h := o.Handler()
	post := func(b RecordBatch) {
		t.Helper()
		body, err := EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("batch from %s answered %d %s, want 400", b.PeerID, rec.Code, rec.Body)
		}
	}
	record := func(id string) UsageRecord {
		r := UsageRecord{Provider: "x", PeerID: id, KeyID: id + "-1", Page: "p", Bytes: 100, Objects: 1, Nonce: id, IssuedAt: time.Now()}
		r.Sign([]byte("made-up secret"))
		return r
	}
	mismatch := func(id string) RecordBatch {
		b := NewRecordBatch(id, []UsageRecord{record(id)})
		b.Root = strings.Repeat("ab", 32)
		return b
	}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("made-up-%04d", i)
		post(mismatch(id))
		post(NewRecordBatch(id, []UsageRecord{record(id)}))
	}
	post(mismatch("peer-00"))

	if rows := o.ledger.rows(); len(rows) != 0 {
		t.Errorf("%d ledger rows, want none; first %+v", len(rows), rows[0])
	}
	if ev := o.ledger.evidence(); len(ev) != 0 {
		t.Errorf("%d audit rows, want none; first %+v", len(ev), ev[0])
	}
	if seq, _ := o.wal.position(); seq != setupSeq {
		t.Errorf("journal at seq %d after the uploads, %d before", seq, setupSeq)
	}
	if err := o.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	c := snapshotCandidates(dir)
	if len(c) == 0 {
		t.Fatal("no snapshot written")
	}
	state, err := readSnapshotFile(c[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(state, []byte("made-up")) {
		t.Error("the snapshot carries a made-up uploader")
	}
}

// TestSettleBatchSampledLeafFlagsPeer: a batch whose root honestly commits
// to records with bad signatures costs only those records. Each is rejected
// on its own and counted in the uploader's row, and nobody is flagged: the
// upload is not authenticated, and a record that fails its signature earns
// nothing. The peer stays in pooled maps.
func TestSettleBatchSampledLeafFlagsPeer(t *testing.T) {
	o := controlOrigin(t, 6)
	w, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	records := make([]UsageRecord, 4)
	for i := range records {
		records[i] = signedRecord(t, w, peer, 25, fmt.Sprintf("sl-%d", i))
		// Inflate AFTER signing, then commit to the inflated bytes: the root
		// recomputes, but no leaf's signature verifies.
		records[i].Bytes = 25000
	}
	n, err := o.SettleBatch(NewRecordBatch(peer, records))
	if !errors.Is(err, ErrBadRecord) || !errors.Is(err, auth.ErrBadSignature) || errors.Is(err, ErrBadBatch) || n != 0 {
		t.Fatalf("tampered-leaf batch = %d, %v; want 0, ErrBadSignature", n, err)
	}
	if acct := o.AccountingFor(peer); acct.Rejected != 4 || acct.CreditedBytes != 0 || acct.Suspended {
		t.Fatalf("accounting %+v; want 4 rejected, no credit, not suspended", acct)
	}
	if isFlagged(o, peer) {
		t.Fatalf("peer %s flagged for records that failed their signatures", peer)
	}
	w2, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if !wrapperPeers(w2)[peer] {
		t.Fatalf("peer %s dropped from pooled maps", peer)
	}
}

// TestBatchOutcomesChargeTheUploader: a batch speaks for its uploader only.
// Peer A slips four validly signed leaves naming peer B into a committed
// batch. The leaves are rejected, and the rejections and their audit
// evidence land on A; B, which sent nothing, keeps a clean ledger row and
// audit row.
func TestBatchOutcomesChargeTheUploader(t *testing.T) {
	o := controlOrigin(t, 6)
	const a, b = "peer-03", "peer-02"
	wrapperFor := func(peer string) *Wrapper {
		for c := 0; c < 200; c++ {
			w, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := w.Keys[peer]; ok {
				return w
			}
		}
		t.Fatalf("no pooled map names %s", peer)
		return nil
	}
	wa, wb := wrapperFor(a), wrapperFor(b)
	const n, planted = 64, 4
	records := make([]UsageRecord, 0, n)
	for i := 0; i < planted; i++ {
		records = append(records, signedRecord(t, wb, b, 250, fmt.Sprintf("b-%d", i)))
	}
	for i := planted; i < n; i++ {
		records = append(records, signedRecord(t, wa, a, 1, fmt.Sprintf("a-%d", i)))
	}
	if got, err := o.SettleBatch(NewRecordBatch(a, records)); !errors.Is(err, ErrBadRecord) || errors.Is(err, ErrBadBatch) || got != n-planted {
		t.Fatalf("SettleBatch = %d, %v; want %d, ErrBadRecord", got, err, n-planted)
	}
	auditRow := func(peer string) PeerAudit {
		for _, pa := range o.Audit().Snapshot().Peers {
			if pa.PeerID == peer {
				return pa
			}
		}
		return PeerAudit{PeerID: peer}
	}
	if acct := o.AccountingFor(a); acct.CreditedBytes != n-planted || acct.Rejected != planted {
		t.Errorf("uploader %s: %+v; want %d credited, %d rejected", a, acct, n-planted, planted)
	}
	if row := auditRow(a); row.Records != n || row.Rejects != planted {
		t.Errorf("uploader %s audit row %+v; want %d records, %d rejects", a, row, n, planted)
	}
	if acct := o.AccountingFor(b); acct.Rejected != 0 || acct.CreditedBytes != 0 || acct.Suspended {
		t.Errorf("bystander %s charged for a batch it never sent: %+v", b, acct)
	}
	if row := auditRow(b); row.Records != 0 || row.Rejects != 0 || row.Flagged {
		t.Errorf("bystander %s audited for a batch it never sent: %+v", b, row)
	}
}

// TestPerServeChargingKeepsHonestPeersUnsuspended: many clients sharing
// pooled maps settle every view honestly; because serves charge assigned
// bytes per serve, total credits never outrun assignments and nobody trips
// the anomaly factor.
func TestPerServeChargingKeepsHonestPeersUnsuspended(t *testing.T) {
	o := controlOrigin(t, 6)
	nonce := 0
	for view := 0; view < 30; view++ {
		client := fmt.Sprintf("client-%d", view%5)
		w, err := o.AssignWrapper("p", client)
		if err != nil {
			t.Fatal(err)
		}
		var records []UsageRecord
		for id := range w.Keys {
			nonce++
			records = append(records, signedRecord(t, w, id, 100, fmt.Sprintf("ps-%d", nonce)))
		}
		if n := settlePerPeer(o, records); n != len(records) {
			t.Fatalf("view %d: settled %d of %d", view, n, len(records))
		}
	}
	for _, p := range o.Peers() {
		acct := o.AccountingFor(p.ID)
		if acct.Suspended {
			t.Fatalf("honest peer %s suspended (credited %d, assigned %d)",
				p.ID, acct.CreditedBytes, acct.AssignedBytes)
		}
		if acct.CreditedBytes > 0 && acct.AssignedBytes == 0 {
			t.Fatalf("peer %s credited without assignment", p.ID)
		}
	}
}

// TestNeighborsAndGossip: the ring hands each peer a stable neighbor set,
// and gossip only nominates. A report nominates the peer it disagrees about
// and moves no breaker; the probe pass it triggers decides, with one probe
// per pass over 8 peers. A peer reported dead that is dead is ejected by
// that pass; a peer reported dead that is healthy stays in every map.
// Repeated reports about one peer nominate it once, and reports about
// unregistered IDs nominate nobody.
func TestNeighborsAndGossip(t *testing.T) {
	fleet := newFakeFleet(t)
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{MinSamples: 1, Cooldown: time.Hour})
	o := fleetOrigin(t, fleet, 8, h)
	nbrs := o.Neighbors("peer-0", 3)
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors = %d peers, want 3", len(nbrs))
	}
	for _, nb := range nbrs {
		if nb.ID == "peer-0" {
			t.Fatal("peer listed as its own neighbor")
		}
	}
	if again := o.Neighbors("peer-0", 3); fmt.Sprint(again) != fmt.Sprint(nbrs) {
		t.Fatalf("neighbor set unstable: %v vs %v", nbrs, again)
	}
	dead, alive := nbrs[0].ID, nbrs[1].ID
	fleet.down.Store(dead, true)
	reportDead := func(id string) int {
		return o.ReportGossip(GossipReport{From: "peer-0", Observations: []PeerObservation{{PeerID: id}}})
	}

	// A true report: the neighbor is dead. It is nominated, and its breaker
	// stays closed until the next probe pass opens it.
	if n := reportDead(dead); n != 1 {
		t.Fatalf("report about dead %s nominated %d, want 1", dead, n)
	}
	if !h.Healthy(dead) {
		t.Fatal("a gossip report moved a breaker")
	}
	o.ProbeSample(context.Background(), 1)
	if h.Healthy(dead) {
		t.Fatalf("the k=1 pass after the report left dead %s healthy", dead)
	}
	if got := mapsNaming(t, o, dead); got != 0 {
		t.Fatalf("dead %s is in %d of 64 maps after the pass", dead, got)
	}

	// A false report: the neighbor is healthy. The pass it triggers finds
	// so, and the peer stays in every map.
	if n := reportDead(alive); n != 1 {
		t.Fatalf("report about %s nominated %d, want 1", alive, n)
	}
	o.ProbeSample(context.Background(), 1)
	if !h.Healthy(alive) || healthRow(h, alive).Successes != 1 {
		t.Fatalf("the k=1 pass did not find %s healthy: %+v", alive, healthRow(h, alive))
	}
	o.EpochTick()
	if got := mapsNaming(t, o, alive); got != 64 {
		t.Fatalf("healthy %s is in %d of 64 maps after a false report, want 64", alive, got)
	}

	nominated := 0
	for range 10_000 {
		nominated += reportDead(alive)
	}
	if got := nominations(o); nominated != 1 || len(got) != 1 || got[0] != alive {
		t.Fatalf("10,000 reports about %s nominated %d (list %v), want 1", alive, nominated, got)
	}
	if n := reportDead("ghost") + o.ReportGossip(GossipReport{Observations: []PeerObservation{{PeerID: "ghost", Healthy: true}}}); n != 0 {
		t.Fatalf("reports about an unregistered ID nominated %d", n)
	}
	if got := nominations(o); len(got) != 1 {
		t.Fatalf("nominations = %v after reports about an unregistered ID", got)
	}
}

// TestConcurrentControlPlaneHammer is the -race regression for the sharded
// refactor: batch settlement, registration, pooled wrapper serving, ticks,
// and accounting reads all run concurrently. Before the ledger refactor,
// settlement held the origin mutex per record and raced registration for
// it; now every combination must be race-clean and deadlock-free.
func TestConcurrentControlPlaneHammer(t *testing.T) {
	o := controlOrigin(t, 8)
	const (
		settlers   = 4
		registrars = 2
		servers    = 4
		rounds     = 50
	)
	var wg sync.WaitGroup
	start := make(chan struct{})

	// Settlers: half single-record batches, half batches that carry their
	// record twice, so the copy is demoted to a replay under the commit lock.
	for s := 0; s < settlers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			client := fmt.Sprintf("hammer-client-%d", s)
			for i := 0; i < rounds; i++ {
				w, err := o.AssignWrapper("p", client)
				if err != nil {
					continue
				}
				peer := anyPeer(w)
				rec := signedRecord(t, w, peer, 50, fmt.Sprintf("h-%d-%d", s, i))
				records := []UsageRecord{rec}
				if i%2 == 0 {
					records = append(records, rec)
				}
				o.SettleBatch(NewRecordBatch(peer, records))
			}
		}(s)
	}
	// Registrars: continuous fleet churn (re-registration updates in place,
	// fresh IDs grow the ring) racing settlement for the shards.
	for r := 0; r < registrars; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				o.RegisterPeer(fmt.Sprintf("churn-%d-%d", r, i%10), "http://churn", 5)
				o.AccountingFor(fmt.Sprintf("churn-%d-%d", r, i%10))
			}
		}(r)
	}
	// Servers: pooled wrapper serves, plus ticks.
	for v := 0; v < servers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				if v == 0 && i%10 == 9 {
					o.EpochTick()
					continue
				}
				o.AssignWrapper("p", fmt.Sprintf("hammer-viewer-%d-%d", v, i%7))
			}
		}(v)
	}
	close(start)
	wg.Wait()

	// Sanity after the storm: ledger rows are internally consistent.
	for _, p := range o.Peers() {
		acct := o.AccountingFor(p.ID)
		if acct.CreditedBytes < 0 || acct.AssignedBytes < 0 || acct.Rejected < 0 {
			t.Fatalf("negative ledger row for %s: %+v", p.ID, acct)
		}
	}
}

// settleShape is everything one settlement leaves behind: the verdict, the
// peer's ledger and audit rows, and the journaled settle records.
type settleShape struct {
	credited int
	err      error
	row      Accounting
	audit    PeerAudit
	journal  []walSettleRec
}

// settleOnce boots a durable origin, settles five records for one peer as a
// committed batch (optionally breaking one signature after signing), and
// collects the shape.
func settleOnce(t *testing.T, badSignature bool) settleShape {
	t.Helper()
	dir := t.TempDir()
	o := walOrigin(t, dir, WALOptions{Fsync: FsyncNever}, 4)
	w, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	records := make([]UsageRecord, 5)
	for i := range records {
		records[i] = signedRecord(t, w, peer, 10+int64(i), fmt.Sprintf("op-%d", i))
	}
	if badSignature {
		records[2].Bytes++ // after signing: the signature no longer covers it
	}
	var got settleShape
	got.credited, got.err = o.SettleBatch(NewRecordBatch(peer, records))
	got.row = o.AccountingFor(peer)
	for _, pa := range o.Audit().Snapshot().Peers {
		if pa.PeerID == peer {
			got.audit = pa
		}
	}
	if _, err := scanWALDir(dir, 0, [32]byte{}, func(fr walFrame) error {
		if fr.typ != walSettle {
			return nil
		}
		var rec walSettleRec
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return err
		}
		got.journal = append(got.journal, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSettleOnePipeline: an honest batch credits every record and journals
// one settle record that consumes its "batch|root" nonce; a bad signature
// costs only its own record, and flags and suspends nobody.
func TestSettleOnePipeline(t *testing.T) {
	honest := settleOnce(t, false)
	if honest.credited != 5 || honest.err != nil {
		t.Fatalf("honest batch credited %d (err %v); want 5, nil", honest.credited, honest.err)
	}
	if honest.row.CreditedBytes != 10+11+12+13+14 || len(honest.journal) != 1 {
		t.Fatalf("credited %d bytes in %d journal records, want 60 in 1",
			honest.row.CreditedBytes, len(honest.journal))
	}
	if rec := honest.journal[0]; !slices.Contains(rec.Nonces, "batch|"+rec.Root) {
		t.Fatalf("settle record consumed no batch nonce: %v", rec.Nonces)
	}

	bad := settleOnce(t, true)
	if !errors.Is(bad.err, auth.ErrBadSignature) || errors.Is(bad.err, ErrBadBatch) || bad.credited != 4 ||
		bad.row.CreditedBytes != 10+11+13+14 || bad.row.Rejected != 1 || bad.row.Suspended || bad.audit.Flagged {
		t.Fatalf("bad signature: %+v; want ErrBadSignature, 4 credited (48 B), 1 rejected, nobody flagged or suspended", bad)
	}
}

// TestAnonymousWrapperStablePerHost: /wrapper without client= keys the pooled
// map on the remote host, so one host sees a byte-identical map within an
// epoch, and a publish or an ejection still rebuilds it.
func TestAnonymousWrapperStablePerHost(t *testing.T) {
	o := controlOrigin(t, 10)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	fetch := func() []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/wrapper?page=p")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /wrapper = %d, %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	first := fetch()
	if again := fetch(); !bytes.Equal(again, first) {
		t.Fatalf("same host, same epoch, different maps:\n%s\n%s", first, again)
	}
	if builds := o.WrapperGenerations(); builds != 1 {
		t.Fatalf("two anonymous views took %d builds, want 1", builds)
	}
	o.AddObject("/c", make([]byte, 500))
	published := fetch()
	if bytes.Equal(published, first) {
		t.Fatal("anonymous map survived a publish")
	}
	var w Wrapper
	if err := json.Unmarshal(published, &w); err != nil {
		t.Fatal(err)
	}
	victim := anyPeer(&w)
	overclaim(t, o, &w, victim)
	var rebuilt Wrapper // fresh: Unmarshal merges into an existing Keys map
	if err := json.Unmarshal(fetch(), &rebuilt); err != nil {
		t.Fatal(err)
	}
	if wrapperPeers(&rebuilt)[victim] {
		t.Fatalf("anonymous map still names ejected peer %s", victim)
	}
	if resp, err := http.Post(srv.URL+"/usage", "application/json", strings.NewReader("[]")); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /usage = %d, want 404 (route deleted)", resp.StatusCode)
	}
}

// TestWrapperServeWritesPooledEncoding: /wrapper writes the pool entry's
// bytes, encoded once at build, and they are what a fresh json.Marshal of
// the pooled map gives. Every serve still counts into WrapperBytes and still
// charges the named peers' assigned bytes; a rebuilt entry carries its own
// encoding.
func TestWrapperServeWritesPooledEncoding(t *testing.T) {
	o := controlOrigin(t, 10)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	serve := func() []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/wrapper?page=p&client=c")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /wrapper = %d, %v: %s", resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("Content-Length %d on a %d-byte wrapper", resp.ContentLength, len(body))
		}
		return body
	}
	check := func(body []byte) {
		t.Helper()
		w, err := o.AssignWrapper("p", "c")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, fresh) {
			t.Fatalf("served bytes differ from a fresh encoding:\n%s\n%s", body, fresh)
		}
	}
	first := serve()
	check(first)
	var w Wrapper
	if err := json.Unmarshal(first, &w); err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(&w)
	sentBefore, assignedBefore := o.WrapperBytes(), o.AccountingFor(peer).AssignedBytes
	if again := serve(); !bytes.Equal(again, first) {
		t.Fatal("pooled hit served different bytes")
	}
	if got := o.WrapperBytes() - sentBefore; got != int64(len(first)) {
		t.Errorf("a pooled serve added %d to WrapperBytes, want %d", got, len(first))
	}
	if o.AccountingFor(peer).AssignedBytes <= assignedBefore {
		t.Errorf("a pooled serve charged %s no assigned bytes", peer)
	}
	if builds := o.WrapperGenerations(); builds != 1 {
		t.Fatalf("%d builds before the tick, want 1", builds)
	}
	o.EpochTick()
	rebuilt := serve()
	if bytes.Equal(rebuilt, first) {
		t.Fatal("the rebuilt entry served the previous epoch's bytes")
	}
	check(rebuilt)
}

// TestPolicyShapesRingWalk: on the pooled path, over fleets of 8–64 peers
// with distinct RTTs, SelectProximity's mean assigned RTT never exceeds
// SelectRandom's, and SelectLoadAware's max/min peer load never exceeds
// SelectRandom's.
func TestPolicyShapesRingWalk(t *testing.T) {
	measure := func(policy SelectionPolicy, peers, objects int) (meanRTT, spread float64) {
		o := NewOrigin("x", WithPolicy(policy))
		page := Page{Name: "p", Container: "/c"}
		o.AddObject("/c", make([]byte, 100))
		for i := 0; i < objects; i++ {
			path := fmt.Sprintf("/o%d", i)
			o.AddObject(path, make([]byte, 100))
			page.Embedded = append(page.Embedded, path)
		}
		if err := o.AddPage(page); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < peers; i++ {
			o.RegisterPeer(fmt.Sprintf("peer-%02d", i), "http://p", float64(5+7*i))
		}
		for c := 0; c < 32; c++ {
			if _, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c)); err != nil {
				t.Fatal(err)
			}
		}
		var rttSum float64
		total, minLoad, maxLoad := 0, 1<<30, 0
		for _, p := range o.Peers() {
			rttSum += p.RTTMillis * float64(p.Assigned)
			total += p.Assigned
			minLoad, maxLoad = min(minLoad, p.Assigned), max(maxLoad, p.Assigned)
		}
		// +1 keeps the ratio finite when the ring leaves a thin peer unassigned.
		return rttSum / float64(total), float64(maxLoad+1) / float64(minLoad+1)
	}
	prop := func(peersRaw, objectsRaw uint8) bool {
		peers, objects := 8+int(peersRaw)%57, 20+int(objectsRaw)%60
		randomRTT, randomSpread := measure(SelectRandom, peers, objects)
		proxRTT, _ := measure(SelectProximity, peers, objects)
		_, loadSpread := measure(SelectLoadAware, peers, objects)
		if proxRTT > randomRTT || loadSpread > randomSpread {
			t.Logf("%d peers, %d objects: RTT proximity %.1f vs random %.1f; spread loadAware %.2f vs random %.2f",
				peers, objects, proxRTT, randomRTT, loadSpread, randomSpread)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
