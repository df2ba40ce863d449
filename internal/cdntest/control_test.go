// control_test.go — acceptance suite for the sharded control plane: pooled
// client assignment over HTTP, ejection of a suspended peer from pooled
// maps, and Merkle-batched settlement that verifies every record's
// signature and rejects a bad record alone. Like the rest
// of cdntest, everything observable rides real HTTP: wrappers come from GET
// /wrapper, settlement goes through POST /usage/batch, and verdicts are
// read from /debug/audit.
package cdntest

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"hpop/internal/adversary"
	"hpop/internal/nocdn"
)

// fetchWrapper GETs one pooled wrapper for (page, client) and returns it
// with the raw body (byte-identical bodies mean the same pooled map).
func fetchWrapper(t *testing.T, s *Stack, page, client string) (*nocdn.Wrapper, []byte) {
	t.Helper()
	resp, err := http.Get(s.OriginSrv.URL + "/wrapper?page=" + page + "&client=" + client)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /wrapper for %s/%s: status %d (%s)", page, client, resp.StatusCode, body)
	}
	var w nocdn.Wrapper
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatal(err)
	}
	return &w, body
}

// auditRow fetches /debug/audit and returns one peer's row (nil if absent).
func auditRow(t *testing.T, s *Stack, peerID string) *nocdn.PeerAudit {
	t.Helper()
	resp, err := http.Get(s.OriginSrv.URL + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap nocdn.AuditSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for i := range snap.Peers {
		if snap.Peers[i].PeerID == peerID {
			return &snap.Peers[i]
		}
	}
	return nil
}

func publishControlPage(s *Stack) {
	s.Publish("/index.html", []byte("<html>control plane</html>"))
	s.Publish("/app.js", bytes.Repeat([]byte("j"), 2000))
	s.PublishPage("cp", "/index.html", "/app.js")
}

// TestAssignmentStabilityWithinEpoch: the same client asking for the same
// page gets the byte-identical pooled wrapper across requests — stable peer
// maps are what let the audit hold claims against a fixed expectation — and
// a different client's map, whatever slot it hashes to, is equally stable.
func TestAssignmentStabilityWithinEpoch(t *testing.T) {
	s := NewStack(t, Config{Peers: 5})
	publishControlPage(s)

	_, first := fetchWrapper(t, s, "cp", "alice")
	for i := 0; i < 3; i++ {
		_, again := fetchWrapper(t, s, "cp", "alice")
		if !bytes.Equal(first, again) {
			t.Fatalf("request %d: alice's wrapper changed within the epoch", i)
		}
	}
	_, bob := fetchWrapper(t, s, "cp", "bob")
	if _, again := fetchWrapper(t, s, "cp", "bob"); !bytes.Equal(bob, again) {
		t.Fatal("bob's wrapper changed within the epoch")
	}

	// A page view through the loader under a client identity works end to
	// end against the pooled map.
	l := s.Loader()
	l.ClientID = "alice"
	res, err := l.LoadPage("cp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body["/app.js"]) != 2000 {
		t.Fatalf("assembled %d bytes of /app.js, want 2000", len(res.Body["/app.js"]))
	}
}

// TestEjectionRemovesPeerFromPooledMaps: a tampered record costs only
// itself — its batch answers 200, the record is rejected, and the peer stays
// in the maps — while validly signed records that over-claim the peer's
// assignment suspend it, and it disappears from pooled wrapper maps on the
// very next request — no epoch tick needed.
func TestEjectionRemovesPeerFromPooledMaps(t *testing.T) {
	s := NewStack(t, Config{Peers: 5})
	publishControlPage(s)

	w, _ := fetchWrapper(t, s, "cp", "alice")
	victim := ""
	for id := range w.Keys {
		if victim == "" || id < victim {
			victim = id
		}
	}
	secret, err := hex.DecodeString(w.Keys[victim].Secret)
	if err != nil {
		t.Fatal(err)
	}
	// A record claims everything one serve of the map assigns the victim.
	var claim int64
	for _, ref := range append([]nocdn.ObjectRef{w.Container}, w.Objects...) {
		if ref.PeerID == victim {
			claim += int64(ref.Size)
		}
	}
	record := func(nonce string) nocdn.UsageRecord {
		rec := nocdn.UsageRecord{
			Provider: s.Provider, PeerID: victim, KeyID: w.Keys[victim].KeyID,
			Page: "cp", Bytes: claim, Objects: 1, Nonce: nonce, IssuedAt: s.Clock.Now(),
		}
		rec.Sign(secret)
		return rec
	}
	post := func(records ...nocdn.UsageRecord) string {
		t.Helper()
		body, err := nocdn.EncodeBatch(nocdn.NewRecordBatch(victim, records))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(s.OriginSrv.URL+"/usage/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d (%s), want 200", resp.StatusCode, msg)
		}
		return string(msg)
	}
	// Sign an honest record, inflate it afterwards, and commit the Merkle
	// root over the inflated bytes: the root verifies, the signature cannot.
	tampered := record("tamper-1")
	tampered.Bytes *= 2
	if got := post(tampered); got != `{"credited":0,"submitted":1}` {
		t.Fatalf("tampered batch answered %s", got)
	}
	if row := auditRow(t, s, victim); row == nil || row.Rejects != 1 || row.Flagged {
		t.Fatalf("victim %s in /debug/audit after a tampered record: %+v; want one reject, not flagged", victim, row)
	}
	if acct := s.Origin.AccountingFor(victim); acct.CreditedBytes != 0 || acct.Suspended {
		t.Fatalf("victim accounting after tamper: %+v", acct)
	}
	if w1, _ := fetchWrapper(t, s, "cp", "alice"); w1.Keys[victim].KeyID == "" {
		t.Fatalf("a tampered record dropped %s from alice's pooled map", victim)
	}

	// Four validly signed records credit twice what the two serves
	// assigned, past the anomaly factor.
	if got := post(record("over-1"), record("over-2"), record("over-3"), record("over-4")); got != `{"credited":4,"submitted":4}` {
		t.Fatalf("over-claiming batch answered %s", got)
	}
	if acct := s.Origin.AccountingFor(victim); !acct.Suspended {
		t.Fatalf("over-claiming peer not suspended: %+v", acct)
	}

	w2, _ := fetchWrapper(t, s, "cp", "alice")
	if _, still := w2.Keys[victim]; still {
		t.Fatalf("ejected peer %s still in alice's pooled map", victim)
	}
	for _, ref := range append([]nocdn.ObjectRef{w2.Container}, w2.Objects...) {
		if ref.PeerID == victim {
			t.Fatalf("ejected peer %s still assigned %s", victim, ref.Path)
		}
	}
}

// TestBatchSettlementCreditsOverHTTP: a real page view through peers, then
// each peer's flush rides POST /usage/batch; the ledger credits exactly one
// page's bytes and nobody is suspended. A replayed flush cannot double-pay
// (the batch root's nonce is spent).
func TestBatchSettlementCreditsOverHTTP(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	publishControlPage(s)

	l := s.Loader()
	l.ClientID = "carol"
	res, err := l.LoadPage("cp")
	if err != nil {
		t.Fatal(err)
	}
	uploaded := 0
	for _, p := range s.Peers {
		n, err := p.Flush(s.OriginSrv.URL)
		if err != nil {
			t.Fatal(err)
		}
		uploaded += n
	}
	if uploaded != res.RecordsDelivered {
		t.Fatalf("uploaded %d records, loader delivered %d", uploaded, res.RecordsDelivered)
	}
	var credited int64
	for _, p := range s.Peers {
		acct := s.Origin.AccountingFor(p.ID)
		credited += acct.CreditedBytes
		if acct.Suspended {
			t.Fatalf("honest peer %s suspended: %+v", p.ID, acct)
		}
		if acct.Rejected != 0 {
			t.Fatalf("honest peer %s had %d rejections", p.ID, acct.Rejected)
		}
	}
	total, err := s.Origin.TotalPageBytes("cp")
	if err != nil {
		t.Fatal(err)
	}
	if credited != total {
		t.Fatalf("credited %d bytes, page is %d", credited, total)
	}
}

// TestSampledSettlementMismatchFlagsInAudit: the full pipeline version of
// the tamper case — peers serve a real page view, inflate their queued
// records after signing, and flush. The Merkle root they commit to matches
// the inflated records, so only signature verification can catch it; it
// does, and /debug/audit shows every cheating uploader with all its records
// rejected and zero credit. Nobody is flagged: a record that fails its
// signature earns nothing.
func TestSampledSettlementMismatchFlagsInAudit(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	publishControlPage(s)

	// The inflation happens on the way out: every peer's uploads go through
	// an adversary.Records that doubles the byte claims and re-commits.
	for _, p := range s.Peers {
		p.SetHTTPClient(&http.Client{Transport: &adversary.Records{Inflate: true}})
	}

	l := s.Loader()
	l.ClientID = "dave"
	if _, err := l.LoadPage("cp"); err != nil {
		t.Fatal(err)
	}
	cheats := 0
	for _, p := range s.Peers {
		n, err := p.Flush(s.OriginSrv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			continue // this peer served nothing, nothing to cheat with
		}
		row := auditRow(t, s, p.ID)
		if row == nil || row.Rejects != int64(n) || row.Flagged {
			t.Fatalf("cheating peer %s in /debug/audit: %+v; want all %d records rejected, not flagged", p.ID, row, n)
		}
		if acct := s.Origin.AccountingFor(p.ID); acct.CreditedBytes != 0 || acct.Suspended {
			t.Fatalf("cheating peer %s: %+v; want no credit, not suspended", p.ID, acct)
		}
		cheats++
	}
	if cheats == 0 {
		t.Fatal("no peer uploaded a tampered batch — test exercised nothing")
	}
}

// TestEpochTickKeepsServingPooledMaps: ticks refresh pooled maps in the
// background; clients keep getting valid wrappers (possibly remapped), and
// between ticks the map is stable again.
func TestEpochTickKeepsServingPooledMaps(t *testing.T) {
	s := NewStack(t, Config{Peers: 4})
	publishControlPage(s)

	for i := 0; i < 3; i++ {
		client := fmt.Sprintf("client-%d", i)
		if w, _ := fetchWrapper(t, s, "cp", client); len(w.Keys) == 0 {
			t.Fatalf("client %s got an empty map", client)
		}
	}
	s.Origin.EpochTick()
	s.Clock.Advance(time.Second)
	_, a := fetchWrapper(t, s, "cp", "client-0")
	_, b := fetchWrapper(t, s, "cp", "client-0")
	if !bytes.Equal(a, b) {
		t.Fatal("map not stable again after the tick")
	}
}
