package nocdn

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hpop/internal/auth"
	"hpop/internal/sim"
)

// issueKey mints the key a build numbered build hands peerID now, through
// the origin's deriver pool, as buildPoolEntry does.
func issueKey(o *Origin, peerID string, budget, build int64) PeerKey {
	d := o.derivers.Get().(*keyDeriver)
	defer o.derivers.Put(d)
	return d.issue(peerID, o.now().Add(keyTTL), budget, build)
}

// isFlagged reads the flag off a peer's /debug/audit row.
func isFlagged(o *Origin, id string) bool {
	for _, pa := range o.Audit().Snapshot().Peers {
		if pa.PeerID == id {
			return pa.Flagged
		}
	}
	return false
}

// TestKeyTableLookup: an issued key's ID names its peer, budget and expiry,
// its secret is 32 bytes, and a record is checked against it: an unknown key
// ID answers auth.ErrUnknownKey, and a key past its expiry auth.ErrExpired.
func TestKeyTableLookup(t *testing.T) {
	clock := newFleetClock()
	o := controlOrigin(t, 1, WithClock(clock.Now))
	k := issueKey(o, "peer-7", 100, 1)
	if !strings.HasPrefix(k.KeyID, "peer-7-") {
		t.Errorf("key id = %q", k.KeyID)
	}
	if secret, err := hex.DecodeString(k.Secret); err != nil || len(secret) != 32 {
		t.Errorf("secret %q: %d bytes, %v", k.Secret, len(secret), err)
	}
	want := keyRow{ID: k.KeyID, PeerID: "peer-7", Expires: clock.Now().Add(keyTTL).Unix() * int64(time.Second), MaxBytes: 100}
	if got, ok := parseKeyID(k.KeyID); !ok || got != want {
		t.Fatalf("parseKeyID(%q) = %+v, %v; want %+v", k.KeyID, got, ok, want)
	}
	w := &Wrapper{Keys: map[string]PeerKey{"peer-7": k}}
	rec := signedRecord(t, w, "peer-7", 100, "n")
	if err := o.checkRecord(&leafVerifier{}, rec, "peer-7", rec.LeafBytes()); err != nil {
		t.Fatalf("fresh key: %v", err)
	}
	unknown := rec
	unknown.KeyID = "nope"
	if err := o.checkRecord(&leafVerifier{}, unknown, "peer-7", unknown.LeafBytes()); !errors.Is(err, auth.ErrUnknownKey) {
		t.Errorf("unknown key err = %v", err)
	}
	clock.Advance(keyTTL + time.Second)
	if err := o.checkRecord(&leafVerifier{}, rec, "peer-7", rec.LeafBytes()); !errors.Is(err, auth.ErrExpired) {
		t.Errorf("expired key err = %v", err)
	}
}

// TestKeyTableDistinctKeys: the keys of two builds for one peer differ in ID
// and secret, the same inputs give the same key, and another origin secret
// gives another secret for the same ID.
func TestKeyTableDistinctKeys(t *testing.T) {
	o := controlOrigin(t, 1)
	a, b := issueKey(o, "p", 1, 1), issueKey(o, "p", 1, 2)
	if a.KeyID == b.KeyID || a.Secret == b.Secret {
		t.Errorf("two builds share an id or secret: %+v, %+v", a, b)
	}
	if again := issueKey(o, "p", 1, 1); again != a {
		t.Errorf("the same inputs gave %+v, then %+v", a, again)
	}
	if other := issueKey(controlOrigin(t, 1), "p", 1, 1); other.KeyID != a.KeyID || other.Secret == a.Secret {
		t.Errorf("two origin secrets gave %+v and %+v", a, other)
	}
}

// TestKeyTableBounded runs 120 fake minutes of a steady audience (8 peers,
// one page, 64 clients a minute, an epoch tick before each minute's views,
// each view settling one record as its own batch, so R = 128 nonces a
// minute) and checks every minute that the nonce cache holds at most
// 2·R·(keyTTL + clockSlack) + noncePurgeFloor nonces: one key lifetime and
// the slack of settles, doubled for the amortized sweep. With an hour's
// window it would hold 7,680. After the 120 minutes a snapshot holds no key
// row.
func TestKeyTableBounded(t *testing.T) {
	const (
		clients         = 64
		noncePurgeFloor = 1024 // auth.NonceCache's sweep floor
	)
	clock := newFleetClock()
	o := controlOrigin(t, 8, WithClock(clock.Now))
	perMinute := int64(2 * clients)
	bound := 2*perMinute*int64((keyTTL+clockSlack)/time.Minute) + noncePurgeFloor
	for m := 0; m < 120; m++ {
		o.EpochTick()
		for c := 0; c < clients; c++ {
			w, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c))
			if err != nil {
				t.Fatal(err)
			}
			id := anyPeer(w)
			r := signedRecord(t, w, id, 1, fmt.Sprintf("m%d-c%d", m, c))
			if n, err := o.SettleBatch(NewRecordBatch(id, []UsageRecord{r})); n != 1 {
				t.Fatalf("minute %d, client %d: credited %d, %v", m, c, n, err)
			}
		}
		if n := int64(o.nonces.Len()); n > bound {
			t.Fatalf("minute %d: %d nonces, more than the bound %d", m, n, bound)
		}
		clock.Advance(time.Minute)
	}
	if keys := o.captureState(0, [32]byte{}).Keys; len(keys) != 0 {
		t.Errorf("snapshot holds %d key rows, want none", len(keys))
	}
}

// TestPooledMapRenewsExpiringKeys: with no epoch tick, a pooled map is
// reused while its keys are young and rebuilt once they are half way to
// expiry, so a view 11 minutes after the first still gets live keys and its
// record settles.
func TestPooledMapRenewsExpiringKeys(t *testing.T) {
	clock := newFleetClock()
	o := controlOrigin(t, 4, WithClock(clock.Now))
	w1, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(keyTTL/2 - time.Second)
	if w, _ := o.AssignWrapper("p", "c"); w != w1 || o.WrapperGenerations() != 1 {
		t.Fatalf("map rebuilt before its keys were half way to expiry (%d builds)", o.WrapperGenerations())
	}
	clock.Advance(keyTTL + time.Minute - (keyTTL/2 - time.Second))
	w2, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	if o.WrapperGenerations() != 2 {
		t.Fatalf("%d builds after 11 minutes, want 2", o.WrapperGenerations())
	}
	for id, pk := range w2.Keys {
		if old, ok := w1.Keys[id]; ok && old.KeyID == pk.KeyID {
			t.Errorf("peer %s still gets key %s", id, pk.KeyID)
		}
		k, ok := parseKeyID(pk.KeyID)
		if !ok || time.Unix(0, k.Expires).Sub(clock.Now()) < keyTTL/2 {
			t.Errorf("key %s: grant %+v, want one with at least %v to run", pk.KeyID, k, keyTTL/2)
		}
	}
	id := anyPeer(w2)
	if n, err := o.SettleBatch(NewRecordBatch(id, []UsageRecord{signedRecord(t, w2, id, 100, "renewed")})); n != 1 {
		t.Fatalf("record under a renewed key: credited %d, %v", n, err)
	}
}

// TestExpiredRecordIsLateNotTampering: an honest record whose key expired
// before it reached the origin is rejected — journaled, its batch nonce
// consumed, counted in Rejected — but its uploader is neither flagged nor
// suspended and stays assignable. A record that fails anything else under
// an expired key is rejected the same way, and flags nobody either.
func TestExpiredRecordIsLateNotTampering(t *testing.T) {
	clock := newFleetClock()
	dir := t.TempDir()
	boot := func() *Origin {
		o := NewOrigin("x", WithRNG(sim.NewRNG(7)), WithClock(clock.Now))
		if _, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1}); err != nil {
			t.Fatal(err)
		}
		o.AddObject("/c", make([]byte, 400))
		o.AddObject("/a", make([]byte, 300))
		if err := o.AddPage(Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
			t.Fatal(err)
		}
		return o
	}
	o := boot()
	for i := 0; i < 4; i++ {
		o.RegisterPeer(fmt.Sprintf("peer-%02d", i), fmt.Sprintf("http://peer-%02d", i), 10)
	}
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	id := anyPeer(w)
	late := NewRecordBatch(id, []UsageRecord{signedRecord(t, w, id, 100, "late")})
	clock.Advance(keyTTL + time.Minute)

	if n, err := o.SettleBatch(late); n != 0 || !errors.Is(err, ErrBadRecord) || !errors.Is(err, auth.ErrExpired) {
		t.Fatalf("late batch: credited %d, err %v; want a rejection for an expired key", n, err)
	}
	if _, err := o.SettleBatch(late); err == nil || !strings.Contains(err.Error(), auth.ErrReplayed.Error()) {
		t.Fatalf("late batch re-posted: %v, want its consumed nonce to bounce it", err)
	}
	check := func(o *Origin, label string) {
		t.Helper()
		if got := o.AccountingFor(id); got.Rejected != 1 || got.CreditedBytes != 0 || got.Suspended {
			t.Errorf("%s: accounting %+v, want one rejection, no credit, not suspended", label, got)
		}
		if isFlagged(o, id) {
			t.Errorf("%s: a late record flagged %s", label, id)
		}
	}
	check(o, "live")
	if err := o.wal.close(); err != nil {
		t.Fatal(err)
	}
	o = boot()
	check(o, "recovered")
	if w2, err := o.AssignWrapper("p", "c"); err != nil || !wrapperPeers(w2)[id] {
		t.Fatalf("after the late batch, the map names %v (%v); want it to still name %s", wrapperPeers(w2), err, id)
	}
	if err := o.wal.close(); err != nil {
		t.Fatal(err)
	}

	// Anything beyond lateness is rejected too, and flags nobody.
	for _, tc := range []struct {
		name string
		rec  func(w *Wrapper, id, other string) UsageRecord
	}{
		{"bad signature", func(w *Wrapper, id, _ string) UsageRecord {
			r := signedRecord(t, w, id, 100, "forged")
			r.Signature = "00"
			return r
		}},
		{"wrong peer", func(w *Wrapper, id, other string) UsageRecord {
			r := signedRecord(t, w, other, 100, "borrowed")
			r.PeerID = id
			return r
		}},
		{"over budget", func(w *Wrapper, id, _ string) UsageRecord {
			return signedRecord(t, w, id, 1<<20, "inflated")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := controlOrigin(t, 4, WithClock(clock.Now))
			w, err := o.AssignWrapper("p", "c")
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, 0, len(w.Keys))
			for pid := range wrapperPeers(w) {
				ids = append(ids, pid)
			}
			if len(ids) < 2 {
				t.Fatalf("map names %v, want two peers", ids)
			}
			id, other := ids[0], ids[1]
			r := tc.rec(w, id, other)
			clock.Advance(keyTTL + time.Minute)
			if n, err := o.SettleBatch(NewRecordBatch(id, []UsageRecord{r})); n != 0 || err == nil {
				t.Fatalf("settled %d, %v", n, err)
			}
			if acct := o.AccountingFor(id); isFlagged(o, id) || acct.Suspended || acct.Rejected != 1 {
				t.Fatalf("%s under an expired key: flagged %v, %+v; want one rejection, not flagged or suspended",
					tc.name, isFlagged(o, id), acct)
			}
		})
	}
}

// TestKeyTableRecoveryDropsRemovedRows: keys minted before a crash verify
// after recovery, from the journal alone and from a snapshot, until they
// expire, and answer auth.ErrExpired after that, also on a boot two hours
// later. No snapshot holds a key row.
func TestKeyTableRecoveryDropsRemovedRows(t *testing.T) {
	for _, viaSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", viaSnapshot), func(t *testing.T) {
			clock := newFleetClock()
			dir := t.TempDir()
			boot := func() (*Origin, RecoveryStats) {
				o := NewOrigin("x", WithRNG(sim.NewRNG(7)), WithClock(clock.Now))
				stats, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1})
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
			o, _ := boot()
			for i := 0; i < 4; i++ {
				o.RegisterPeer(fmt.Sprintf("peer-%02d", i), fmt.Sprintf("http://peer-%02d", i), 10)
			}
			var records []UsageRecord
			for c := 0; c < 8; c++ {
				w, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c))
				if err != nil {
					t.Fatal(err)
				}
				for id := range w.Keys {
					records = append(records, signedRecord(t, w, id, 1, fmt.Sprintf("c%d", c)))
				}
			}
			if viaSnapshot {
				if err := o.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.wal.close(); err != nil {
				t.Fatal(err)
			}
			check := func(o *Origin, label string, want error) {
				t.Helper()
				for _, r := range records {
					if err := o.checkRecord(&leafVerifier{}, r, r.PeerID, r.LeafBytes()); !errors.Is(err, want) {
						t.Errorf("%s: record under %s: %v, want %v", label, r.KeyID, err, want)
					}
				}
				if keys := o.captureState(0, [32]byte{}).Keys; len(keys) != 0 {
					t.Errorf("%s: snapshot holds %d key rows", label, len(keys))
				}
			}

			clock.Advance(keyTTL - time.Minute)
			o2, stats := boot()
			if viaSnapshot != (stats.SnapshotSeq > 0) || viaSnapshot != (stats.RecordsReplayed == 0) {
				t.Fatalf("recovery %+v: want it from the snapshot=%v", stats, viaSnapshot)
			}
			check(o2, "recovered", nil)
			clock.Advance(time.Minute + time.Second)
			check(o2, "expired", auth.ErrExpired)
			if err := o2.wal.close(); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2 * time.Hour)
			o3, _ := boot()
			check(o3, "two hours later", auth.ErrExpired)
			if err := o3.wal.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// parentRecord is one journal record as a parent writer wrote it.
type parentRecord struct {
	typ     walRecType
	payload []byte
}

// writeParentJournal appends records to the journal in dir.
func writeParentJournal(t testing.TB, dir string, recs ...parentRecord) {
	t.Helper()
	w, err := openControlWAL(dir, FsyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := w.append(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// parentKeyRowJSON is the row in which a build before keys derived from
// the origin secret journaled key peer-00-1, expiring at expires.
func parentKeyRowJSON(expires time.Time) string {
	return fmt.Sprintf(`{"id":"peer-00-1","peerId":"peer-00","secretHex":%q,"expiresUnixNano":%d,"maxBytes":700}`,
		strings.Repeat("5a", 32), expires.UnixNano())
}

// TestParentKeysSettleAfterUpgrade: a key that a parent build minted is a
// row with a random secret, in its journal or in its snapshot. This release
// reads no secret from a row, so a row unexpired at boot refuses the boot
// with errStateFormat, and every file in the dir stays as it was. An
// expired row authorises nothing: the origin boots past it, and a record
// under its key answers auth.ErrUnknownKey.
func TestParentKeysSettleAfterUpgrade(t *testing.T) {
	for _, from := range []string{"journal", "snapshot"} {
		t.Run(from, func(t *testing.T) {
			clock := newFleetClock()
			dir := t.TempDir()
			row := parentKeyRowJSON(clock.Now().Add(keyTTL))
			if from == "journal" {
				reg, _ := json.Marshal(walPeerRegisterRec{ID: "peer-00", URL: "http://peer-00", RTT: 10, AssignEpoch: 1})
				issued := fmt.Sprintf(`{"keys":[%s],"assigned":{"peer-00":700}}`, row)
				writeParentJournal(t, dir, parentRecord{walPeerRegister, reg}, parentRecord{walKeysIssued, []byte(issued)})
			} else {
				state := fmt.Sprintf(`{"seq":2,"chainHex":%q,"contentEpoch":0,"assignEpoch":1,"takenAtUnixNano":%d,`+
					`"peers":[{"id":"peer-00","url":"http://peer-00","rtt":10}],`+
					`"ledger":[{"id":"peer-00","credited":0,"assigned":700,"rejected":0,"assignCount":1}],`+
					`"keys":[%s],"nonces":null,"audit":{"peers":[]}}`,
					strings.Repeat("00", 32), clock.Now().UnixNano(), row)
				if err := os.MkdirAll(dir, 0o700); err != nil {
					t.Fatal(err)
				}
				if err := writeSnapshotFile(dir, 2, []byte(state)); err != nil {
					t.Fatal(err)
				}
			}
			attach := func() (*Origin, error) {
				o := NewOrigin("x", WithClock(clock.Now))
				_, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1})
				return o, err
			}

			clock.Advance(time.Minute)
			before := dirFiles(t, dir)
			_, err := attach()
			assertRefused(t, err, dir, before)

			clock.Advance(keyTTL)
			o, err := attach()
			if err != nil {
				t.Fatalf("past the row's expiry: %v", err)
			}
			t.Cleanup(func() { o.wal.close() })
			r := UsageRecord{Provider: "x", PeerID: "peer-00", KeyID: "peer-00-1", Page: "p", Bytes: 100,
				Objects: 1, Nonce: "late", IssuedAt: clock.Now()}
			r.Sign([]byte(strings.Repeat("Z", 32)))
			if n, err := o.SettleBatch(NewRecordBatch("peer-00", []UsageRecord{r})); n != 0 || !errors.Is(err, auth.ErrUnknownKey) {
				t.Fatalf("a record under the expired row's key: credited %d, %v; want auth.ErrUnknownKey", n, err)
			}
		})
	}
}
