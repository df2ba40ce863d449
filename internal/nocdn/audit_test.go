package nocdn

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"hpop/internal/hpop"
)

// newLedgerAuditor returns an auditor over a ledger of its own.
func newLedgerAuditor() *Auditor { return &Auditor{ledger: newLedger()} }

// observeBatch settles outcomes as one batch uploaded by peerID, the way
// commitSettlement does: the journal delta goes into the uploader's ledger
// row, and the outcomes into the nocdn.audit.* counters.
func observeBatch(a *Auditor, peerID string, outcomes ...settleOutcome) {
	if a != nil {
		a.ledger.settle(peerID, 0, 0, buildAuditDelta(peerID, outcomes), false)
	}
	a.countSettled(outcomes)
}

// TestAuditorFlagsInflatingPeer feeds the auditor batches from two honest
// peers and one whose records are all rejected with inflated byte claims.
// Rejections flag nobody; the cheat leads the snapshot on its rejects, with
// the offending trace IDs.
func TestAuditorFlagsInflatingPeer(t *testing.T) {
	a := newLedgerAuditor()
	m := hpop.NewMetrics()
	a.SetMetrics(m)

	tp := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for i := 0; i < 5; i++ {
		observeBatch(a, "honest-a", settleOutcome{rec: UsageRecord{PeerID: "honest-a", Bytes: 1000}})
		observeBatch(a, "honest-b", settleOutcome{rec: UsageRecord{PeerID: "honest-b", Bytes: 1100}})
		observeBatch(a, "cheat", settleOutcome{rec: UsageRecord{PeerID: "cheat", Bytes: 4000, Traceparent: tp},
			err: errors.New("bad signature")})
	}
	snap := a.Snapshot()
	if len(snap.Peers) != 3 {
		t.Fatalf("snapshot has %d peers, want 3", len(snap.Peers))
	}
	cheat := snap.Peers[0]
	if cheat.PeerID != "cheat" || cheat.Flagged || cheat.Rejects != 5 || cheat.ClaimedByte != 20000 {
		t.Fatalf("snapshot leads with %+v, want cheat unflagged with 5 rejects and 20000 claimed bytes", cheat)
	}
	if len(cheat.Offending) == 0 || cheat.Offending[0] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("offending traces = %v, want the rejected records' trace ID", cheat.Offending)
	}
	for _, p := range snap.Peers[1:] {
		if p.Flagged || p.Rejects != 0 {
			t.Errorf("honest peer row %+v, want unflagged without rejects", p)
		}
	}

	if got := m.Counter("nocdn.audit.records"); got != 15 {
		t.Errorf("audit.records = %v, want 15", got)
	}
	if got := m.Counter("nocdn.audit.rejects"); got != 5 {
		t.Errorf("audit.rejects = %v, want 5", got)
	}
}

func TestAuditorReplayClassification(t *testing.T) {
	a := newLedgerAuditor()
	var outcomes []settleOutcome
	for i := 0; i < 4; i++ {
		outcomes = append(outcomes, settleOutcome{rec: UsageRecord{PeerID: "rep", Bytes: 500},
			err: errors.New("nonce reused"), replayed: true})
	}
	observeBatch(a, "rep", outcomes...)
	snap := a.Snapshot()
	if snap.Peers[0].Replays != 4 || snap.Peers[0].Rejects != 4 {
		t.Errorf("replays/rejects = %d/%d, want 4/4", snap.Peers[0].Replays, snap.Peers[0].Rejects)
	}
}

func TestAuditorOffendingBounded(t *testing.T) {
	a := newLedgerAuditor()
	for i := 0; i < auditMaxOffending*3; i++ {
		tp := fmt.Sprintf("00-%032x-%016x-01", i+1, i+1)
		observeBatch(a, "p", settleOutcome{rec: UsageRecord{PeerID: "p", Bytes: 100, Traceparent: tp},
			err: errors.New("bad")})
	}
	if got := len(a.Snapshot().Peers[0].Offending); got != auditMaxOffending {
		t.Errorf("offending traces retained = %d, want cap %d", got, auditMaxOffending)
	}
}

func TestAuditHandlerJSON(t *testing.T) {
	a := newLedgerAuditor()
	observeBatch(a, "p", settleOutcome{rec: UsageRecord{PeerID: "p", Bytes: 100}})
	rec := httptest.NewRecorder()
	a.Handler()(rec, httptest.NewRequest("GET", "/debug/audit", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap AuditSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("response not valid audit JSON: %v", err)
	}
	if len(snap.Peers) != 1 || snap.Peers[0].PeerID != "p" {
		t.Errorf("decoded snapshot = %+v", snap)
	}
}

func TestAuditorNilSafety(t *testing.T) {
	var a *Auditor
	observeBatch(a, "p", settleOutcome{rec: UsageRecord{PeerID: "p", Bytes: 1}}) // must not panic
	a.SetMetrics(nil)
	if snap := a.Snapshot(); snap.Peers == nil || len(snap.Peers) != 0 {
		t.Errorf("nil auditor snapshot = %+v, want empty peers slice", snap)
	}
}
