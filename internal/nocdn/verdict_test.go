package nocdn_test

// The origin's verdicts on settlement, seen from outside: a record that
// fails its checks costs only itself, a peer whose valid records over-claim
// is suspended, and an honest peer, however thin its share of the ring, or
// however many forged records are sent in its name, is neither.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hpop/internal/adversary"
	"hpop/internal/auth"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// verdictSite is an origin with four peers, peer-0…peer-3, publishing four
// pages of a 1 KiB container and six 2 KiB objects, named the way bench/
// names its catalogue. Under those names one visitor's maps leave peer-3
// claiming far less per record than the other three.
type verdictSite struct {
	origin    *nocdn.Origin
	originSrv *httptest.Server
	peers     []*nocdn.Peer
	pages     []string
}

func newVerdictSite(t *testing.T) *verdictSite {
	t.Helper()
	o := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	s := &verdictSite{origin: o}
	for p := 0; p < 4; p++ {
		name := fmt.Sprintf("p%03d", p)
		page := nocdn.Page{Name: name, Container: "/" + name + "/index.html"}
		o.AddObject(page.Container, bytes.Repeat([]byte{byte(p)}, 1<<10))
		for e := 0; e < 6; e++ {
			path := fmt.Sprintf("/%s/o%02d.bin", name, e)
			o.AddObject(path, bytes.Repeat([]byte{byte(p), byte(e)}, 1<<10))
			page.Embedded = append(page.Embedded, path)
		}
		if err := o.AddPage(page); err != nil {
			t.Fatal(err)
		}
		s.pages = append(s.pages, name)
	}
	s.originSrv = httptest.NewServer(o.Handler())
	t.Cleanup(s.originSrv.Close)
	for i := 0; i < 4; i++ {
		p := nocdn.NewPeer(fmt.Sprintf("peer-%d", i), 0)
		p.SignUp("example.com", s.originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		t.Cleanup(srv.Close)
		o.RegisterPeer(p.ID, srv.URL, float64(10+10*i))
		s.peers = append(s.peers, p)
	}
	return s
}

// flushAll uploads every peer's pending records and returns how many settled.
func (s *verdictSite) flushAll(t *testing.T) int {
	t.Helper()
	n := 0
	for _, p := range s.peers {
		k, err := p.Flush(s.originSrv.URL)
		if err != nil {
			t.Fatalf("%s flush: %v", p.ID, err)
		}
		n += k
	}
	return n
}

// flagged reports whether /debug/audit's row for id is flagged.
func (s *verdictSite) flagged(id string) bool {
	for _, pa := range s.origin.Audit().Snapshot().Peers {
		if pa.PeerID == id {
			return pa.Flagged
		}
	}
	return false
}

// TestThinHonestPeerNotFlagged: one visitor's stable maps over four similarly
// named peers hand one of them a thin share of every page, so its usage
// records are smaller than everyone else's. Small honest claims are not
// evidence: after hundreds of settled records nobody is flagged or
// suspended, and every peer is paid exactly what the loader verified.
func TestThinHonestPeerNotFlagged(t *testing.T) {
	s := newVerdictSite(t)
	loader := &nocdn.Loader{OriginURL: s.originSrv.URL, ClientID: "visitor", Concurrency: nocdn.DefaultConcurrency}
	served := make(map[string]int64)
	settled := 0
	for view := 0; settled < 200; view++ {
		if view == 400 {
			t.Fatalf("only %d records settled after %d views", settled, view)
		}
		res, err := loader.LoadPage(s.pages[view%len(s.pages)])
		if err != nil {
			t.Fatalf("view %d: %v", view, err)
		}
		for id, n := range res.PeerBytes {
			served[id] += n
		}
		if view%4 == 3 {
			settled += s.flushAll(t)
		}
	}
	settled += s.flushAll(t)
	for _, p := range s.peers {
		acc := s.origin.AccountingFor(p.ID)
		if s.flagged(p.ID) {
			t.Errorf("honest %s flagged after %d settled records (served %d B)", p.ID, settled, served[p.ID])
		}
		if acc.Suspended {
			t.Errorf("honest %s suspended", p.ID)
		}
		if acc.CreditedBytes != served[p.ID] {
			t.Errorf("%s credited %d B, loader verified %d B from it", p.ID, acc.CreditedBytes, served[p.ID])
		}
	}
}

// TestOverclaimersStillCaught is the over-claiming table: each attack on
// settlement ends with the verdict in its row, read from /debug/audit and
// the ledger. The cheat is the peer the visitor's first map names, and each
// row first settles one honest view of every page, so the cheat is judged
// beside an honest population; credited counts only the attack's bytes.
//   - Inflated claims fail their signatures: each is rejected and earns
//     nothing, the valid records beside it still credit, and nobody is
//     flagged.
//   - Duplicated records settle once; the copies bounce off the nonce cache.
//     No verdict: the ledger already paid only for what was served.
//   - 100 fabricated records under a colluding client's key all verify, so
//     nothing is flagged, and the assigned-floor ratio suspends the peer.
func TestOverclaimersStillCaught(t *testing.T) {
	type verdict struct {
		flagged, suspended bool
		credited           int64
		rejected           int64
	}
	for _, tc := range []struct {
		name   string
		attack func(t *testing.T, s *verdictSite, cheat *nocdn.Peer)
		want   verdict
	}{
		{
			name: "inflate",
			attack: func(t *testing.T, s *verdictSite, cheat *nocdn.Peer) {
				cheat.SetHTTPClient(&http.Client{Transport: &adversary.Records{Inflate: true}})
				s.viewAll(t)
				s.flushAll(t)
			},
			want: verdict{flagged: false, suspended: false, credited: 0, rejected: 4},
		},
		{
			name: "duplicate",
			attack: func(t *testing.T, s *verdictSite, cheat *nocdn.Peer) {
				cheat.SetHTTPClient(&http.Client{Transport: &adversary.Records{Duplicate: true}})
				s.viewAll(t)
				s.flushAll(t)
			},
			want: verdict{flagged: false, suspended: false, credited: 16384, rejected: 4},
		},
		{
			name: "inflated sampled leaf",
			attack: func(t *testing.T, s *verdictSite, cheat *nocdn.Peer) {
				w, err := s.origin.AssignWrapper(s.pages[0], "leaf-cheat")
				if err != nil {
					t.Fatal(err)
				}
				recs := signedClaims(t, w, cheat.ID, 3)
				recs[1].Bytes++ // after signing: the leaf no longer verifies
				if _, err := s.origin.SettleBatch(nocdn.NewRecordBatch(cheat.ID, recs)); !errors.Is(err, nocdn.ErrBadRecord) || !errors.Is(err, auth.ErrBadSignature) {
					t.Fatalf("inflated leaf settled: %v", err)
				}
			},
			want: verdict{flagged: false, suspended: false, credited: 8192, rejected: 1},
		},
		{
			name: "collusion",
			attack: func(t *testing.T, s *verdictSite, cheat *nocdn.Peer) {
				w, err := s.origin.AssignWrapper(s.pages[0], "colluding-client")
				if err != nil {
					t.Fatal(err)
				}
				recs := signedClaims(t, w, cheat.ID, 100)
				if n, err := s.origin.SettleBatch(nocdn.NewRecordBatch(cheat.ID, recs)); err != nil || n != 100 {
					t.Fatalf("fabricated valid-signature records: settled %d, %v", n, err)
				}
			},
			want: verdict{flagged: false, suspended: true, credited: 409600, rejected: 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newVerdictSite(t)
			s.viewAll(t)
			s.flushAll(t)
			cheat := s.namedPeer(t)
			honestCredit := s.origin.AccountingFor(cheat.ID).CreditedBytes
			tc.attack(t, s, cheat)

			acc := s.origin.AccountingFor(cheat.ID)
			got := verdict{flagged: s.flagged(cheat.ID), suspended: acc.Suspended, credited: acc.CreditedBytes - honestCredit, rejected: acc.Rejected}
			if got != tc.want {
				t.Errorf("%s: got %+v, want %+v", cheat.ID, got, tc.want)
			}
		})
	}
}

// viewAll loads every page once, as one visitor, and returns the bytes the
// loader verified from each peer.
func (s *verdictSite) viewAll(t *testing.T) map[string]int64 {
	t.Helper()
	loader := &nocdn.Loader{OriginURL: s.originSrv.URL, ClientID: "visitor"}
	served := make(map[string]int64)
	for _, page := range s.pages {
		res, err := loader.LoadPage(page)
		if err != nil {
			t.Fatalf("view %s: %v", page, err)
		}
		for id, n := range res.PeerBytes {
			served[id] += n
		}
	}
	return served
}

// signedClaims forges n records under w's key for peerID, each claiming all
// the bytes w assigned that peer and each correctly signed: what a client
// colluding with the peer can mint.
func signedClaims(t *testing.T, w *nocdn.Wrapper, peerID string, n int) []nocdn.UsageRecord {
	t.Helper()
	key, ok := w.Keys[peerID]
	if !ok {
		t.Fatalf("wrapper names no key for %s", peerID)
	}
	secret, err := hex.DecodeString(key.Secret)
	if err != nil {
		t.Fatal(err)
	}
	var assigned int64
	for _, ref := range append([]nocdn.ObjectRef{w.Container}, w.Objects...) {
		if ref.PeerID == peerID {
			assigned += int64(ref.Size)
		}
	}
	out := make([]nocdn.UsageRecord, n)
	for i := range out {
		out[i] = nocdn.UsageRecord{
			Provider: w.Provider, PeerID: peerID, KeyID: key.KeyID, Page: w.Page,
			Bytes: assigned, Objects: 1, Nonce: fmt.Sprintf("forged-%d", i), IssuedAt: w.IssuedAt,
		}
		out[i].Sign(secret)
	}
	return out
}

// namedPeer is the first peer that "visitor"'s map for the first page names.
func (s *verdictSite) namedPeer(t *testing.T) *nocdn.Peer {
	t.Helper()
	w, err := s.origin.AssignWrapper(s.pages[0], "visitor")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.peers {
		if _, ok := w.Keys[p.ID]; ok {
			return p
		}
	}
	t.Fatal("the visitor's map names no peer")
	return nil
}

// TestForwardedRecordCostsOnlyItself: a client posts one record under the
// victim's real key, signed "00", to the victim's /record. The victim
// cannot check the signature and uploads it with its honest records. The
// forged record is rejected alone: the victim is credited exactly what the
// loader verified from it, is neither flagged nor suspended, and fresh
// clients' maps still name it.
func TestForwardedRecordCostsOnlyItself(t *testing.T) {
	s := newVerdictSite(t)
	served := s.viewAll(t)
	victim := s.namedPeer(t)
	w, err := s.origin.AssignWrapper(s.pages[0], "forger")
	if err != nil {
		t.Fatal(err)
	}
	key, ok := w.Keys[victim.ID]
	if !ok {
		t.Fatalf("the forger's map names no key for %s", victim.ID)
	}
	forged := nocdn.UsageRecord{
		Provider: w.Provider, PeerID: victim.ID, KeyID: key.KeyID, Page: w.Page,
		Bytes: 1, Objects: 1, Nonce: "forged", IssuedAt: w.IssuedAt, Signature: "00",
	}
	resp, err := http.Post(s.peerURL(t, victim.ID)+"/record", "text/plain", bytes.NewReader(forged.LeafBytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/record answered %d, want 202", resp.StatusCode)
	}
	s.flushAll(t)
	s.checkCostsOnlyItself(t, victim.ID, served[victim.ID])
}

// TestAnonymousBatchCostsOnlyItself: one anonymous POST /usage/batch names
// the victim and carries one record under a made-up key. The record is
// rejected and counted in the victim's row, and nothing else changes: the
// victim is credited exactly what the loader verified from it, is neither
// flagged nor suspended, and fresh clients' maps still name it.
func TestAnonymousBatchCostsOnlyItself(t *testing.T) {
	s := newVerdictSite(t)
	served := s.viewAll(t)
	victim := s.namedPeer(t)
	rec := nocdn.UsageRecord{
		Provider: "example.com", PeerID: victim.ID, KeyID: "made-up", Page: s.pages[0],
		Bytes: 1, Objects: 1, Nonce: "anonymous", IssuedAt: time.Now(),
	}
	rec.Sign([]byte("not a key the origin minted"))
	body, err := nocdn.EncodeBatch(nocdn.NewRecordBatch(victim.ID, []nocdn.UsageRecord{rec}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.originSrv.URL+"/usage/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("anonymous batch answered %d, want 200", resp.StatusCode)
	}
	s.flushAll(t)
	s.checkCostsOnlyItself(t, victim.ID, served[victim.ID])
}

// peerURL is the address the origin registered for id.
func (s *verdictSite) peerURL(t *testing.T, id string) string {
	t.Helper()
	for _, p := range s.origin.Peers() {
		if p.ID == id {
			return p.URL
		}
	}
	t.Fatalf("%s is not registered", id)
	return ""
}

// checkCostsOnlyItself holds the victim of one forged record to the
// outcome of an honest peer with one rejection.
func (s *verdictSite) checkCostsOnlyItself(t *testing.T, victim string, served int64) {
	t.Helper()
	acc := s.origin.AccountingFor(victim)
	if served == 0 || acc.CreditedBytes != served || acc.Rejected != 1 {
		t.Errorf("%s: %+v; want %d B credited (what the loader verified) and 1 rejected", victim, acc, served)
	}
	if s.flagged(victim) || acc.Suspended {
		t.Errorf("%s flagged %v, suspended %v; want neither", victim, s.flagged(victim), acc.Suspended)
	}
	for c := 0; c < 32; c++ {
		w, err := s.origin.AssignWrapper(s.pages[c%len(s.pages)], fmt.Sprintf("fresh-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.Keys[victim]; ok {
			return
		}
	}
	t.Errorf("no fresh client's map names %s", victim)
}
