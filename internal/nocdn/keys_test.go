package nocdn

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpop/internal/auth"
	"hpop/internal/sim"
)

// keySuffix is the counter value in a "peer-N" key ID.
func keySuffix(t *testing.T, id string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	if err != nil {
		t.Fatalf("key ID %q has no counter suffix", id)
	}
	return n
}

// isFlagged reads the flag off a peer's ledger row.
func isFlagged(o *Origin, id string) bool {
	sh := o.ledger.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.rows[id]
	return r != nil && r.Flagged
}

// TestKeyTableLookup: a minted row carries its peer's ID and a 32-byte
// secret, and a record is checked against it: an unknown key ID answers
// auth.ErrUnknownKey, and a key past its expiry auth.ErrExpired.
func TestKeyTableLookup(t *testing.T) {
	clock := newFleetClock()
	o := controlOrigin(t, 1, WithClock(clock.Now))
	k := o.ledger.mintKey("peer-7", 100, clock.Now())
	if !strings.HasPrefix(k.ID, "peer-7-") {
		t.Errorf("key id = %q", k.ID)
	}
	if secret, err := hex.DecodeString(k.SecretHex); err != nil || len(secret) != 32 {
		t.Errorf("secret %q: %d bytes, %v", k.SecretHex, len(secret), err)
	}
	got, ok := o.ledger.key(k.ID)
	if !ok || got != k {
		t.Fatalf("key(%q) = %+v, %v; want the minted row", k.ID, got, ok)
	}
	w := &Wrapper{Keys: map[string]PeerKey{"peer-7": {KeyID: k.ID, Secret: k.SecretHex}}}
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

// TestKeyTableDistinctKeys: two keys minted for one peer differ in ID and
// secret.
func TestKeyTableDistinctKeys(t *testing.T) {
	l := newLedger()
	now := time.Now()
	a, b := l.mintKey("p", 1, now), l.mintKey("p", 1, now)
	if a.ID == b.ID || a.SecretHex == b.SecretHex {
		t.Error("table reused id or secret")
	}
}

// TestKeyTableBounded runs 120 fake minutes of a steady audience (8 peers,
// one page, 64 clients a minute, an epoch tick before each minute's views)
// and checks the key table's size every minute: it keeps every unexpired
// key, and never holds more than the keys minted in the last 70 minutes (one
// key TTL plus one replay window) plus one sweep interval.
func TestKeyTableBounded(t *testing.T) {
	clock := newFleetClock()
	o := controlOrigin(t, 8, WithClock(clock.Now))
	var minted []int64 // minted[m]: keys minted through minute m
	for m := 0; m < 120; m++ {
		o.EpochTick()
		for c := 0; c < 64; c++ {
			if _, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c)); err != nil {
				t.Fatal(err)
			}
		}
		minted = append(minted, o.ledger.keySeq.Load())
		since := func(minutes int) int64 {
			if m-minutes < 0 {
				return minted[m]
			}
			return minted[m] - minted[m-minutes]
		}
		rows := int64(len(o.ledger.keys()))
		if live := since(int(keyTTL / time.Minute)); rows < live {
			t.Fatalf("minute %d: %d rows, fewer than the %d unexpired keys", m, rows, live)
		}
		if bound := since(int((keyTTL + replayWindow + keySweepInterval) / time.Minute)); rows > bound {
			t.Fatalf("minute %d: %d rows, more than the %d keys minted in the last 75 minutes", m, rows, bound)
		}
		clock.Advance(time.Minute)
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
		k, ok := o.ledger.key(pk.KeyID)
		if !ok || time.Unix(0, k.Expires).Sub(clock.Now()) < keyTTL/2 {
			t.Errorf("key %s: row %+v, want one with at least %v to run", pk.KeyID, k, keyTTL/2)
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

// TestKeyTableRecoveryDropsRemovedRows: an origin recovered two hours after
// its keys were minted — from the journal alone, or from a snapshot — holds
// no row for them, and keys it mints afterwards never reuse a pre-crash ID.
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
			var old []string
			maxOld := int64(0)
			for c := 0; c < 8; c++ {
				w, err := o.AssignWrapper("p", fmt.Sprintf("client-%d", c))
				if err != nil {
					t.Fatal(err)
				}
				for _, pk := range w.Keys {
					old = append(old, pk.KeyID)
					maxOld = max(maxOld, keySuffix(t, pk.KeyID))
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

			clock.Advance(2 * time.Hour)
			o2, stats := boot()
			if viaSnapshot != (stats.SnapshotSeq > 0) || viaSnapshot != (stats.RecordsReplayed == 0) {
				t.Fatalf("recovery %+v: want it from the snapshot=%v", stats, viaSnapshot)
			}
			for _, id := range old {
				if k, ok := o2.ledger.key(id); ok {
					t.Errorf("row %+v survived two hours past its mint", k)
				}
			}
			if n := len(o2.ledger.keys()); n != 0 {
				t.Errorf("recovered table holds %d rows, want 0", n)
			}
			w, err := o2.AssignWrapper("p", "client-0")
			if err != nil {
				t.Fatal(err)
			}
			for _, pk := range w.Keys {
				if keySuffix(t, pk.KeyID) <= maxOld {
					t.Errorf("post-recovery key %s reuses the pre-crash counter (max %d)", pk.KeyID, maxOld)
				}
			}
			if err := o2.wal.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
