package auth_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hpop/internal/auth"
	"hpop/internal/nocdn"
)

// The short-term keys whose lookup errors this package defines are minted
// and checked by the NoCDN origin, each derived from its ID. These tests hold
// that issuer to the key contract through its exported API: a wrapper page
// hands each peer a key, and a settled usage record is looked up against it.

// keyOrigin is an origin on a fake clock serving one page from one peer.
func keyOrigin(t *testing.T) (*nocdn.Origin, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	o := nocdn.NewOrigin("x", nocdn.WithClock(func() time.Time { return now }))
	o.AddObject("/c", make([]byte, 400))
	o.AddObject("/a", make([]byte, 300))
	if err := o.AddPage(nocdn.Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("peer-7", "http://peer-7", 10)
	return o, &now
}

// settleOne settles one record signed under k as its own batch.
func settleOne(o *nocdn.Origin, k nocdn.PeerKey, secret []byte, nonce string) (int, error) {
	r := nocdn.UsageRecord{
		Provider: "x", PeerID: "peer-7", KeyID: k.KeyID,
		Page: "p", Bytes: 100, Objects: 1, Nonce: nonce, IssuedAt: time.Now(),
	}
	r.Sign(secret)
	return o.SettleBatch(nocdn.NewRecordBatch("peer-7", []nocdn.UsageRecord{r}))
}

// issuedKey assigns a wrapper and returns peer-7's key and decoded secret.
func issuedKey(t *testing.T, o *nocdn.Origin) (nocdn.PeerKey, []byte) {
	t.Helper()
	w, err := o.AssignWrapper("p", "client")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := w.Keys["peer-7"]
	if !ok {
		t.Fatalf("wrapper has no key for peer-7 (has %v)", w.Keys)
	}
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		t.Fatalf("secret %q: %v", k.Secret, err)
	}
	return k, secret
}

// TestKeyIssuer: an issued key's ID names its peer and its secret is 32
// bytes; a record under it is found and settles, a record under an unknown
// key ID fails with ErrUnknownKey, and one under the key after its expiry
// with ErrExpired.
func TestKeyIssuer(t *testing.T) {
	o, now := keyOrigin(t)
	k, secret := issuedKey(t, o)
	if !strings.HasPrefix(k.KeyID, "peer-7-") {
		t.Errorf("key id = %q", k.KeyID)
	}
	if len(secret) != 32 {
		t.Errorf("secret len = %d", len(secret))
	}
	if n, err := settleOne(o, k, secret, "n1"); n != 1 || err != nil {
		t.Fatalf("lookup: credited %d, %v", n, err)
	}
	unknown := k
	unknown.KeyID = "nope"
	if _, err := settleOne(o, unknown, secret, "n2"); !errors.Is(err, auth.ErrUnknownKey) {
		t.Errorf("unknown key err = %v", err)
	}
	*now = now.Add(time.Hour)
	if _, err := settleOne(o, k, secret, "n3"); !errors.Is(err, auth.ErrExpired) {
		t.Errorf("expired key err = %v", err)
	}
}

// TestKeyExpired: a key is valid up to its expiry and reported expired one
// moment past it.
func TestKeyExpired(t *testing.T) {
	for _, tc := range []struct {
		after   time.Duration
		expired bool
	}{
		{0, false},
		{10 * time.Minute, false},
		{10*time.Minute + time.Nanosecond, true},
	} {
		t.Run(fmt.Sprint(tc.after), func(t *testing.T) {
			o, now := keyOrigin(t)
			k, secret := issuedKey(t, o)
			*now = now.Add(tc.after)
			n, err := settleOne(o, k, secret, "n")
			if got := errors.Is(err, auth.ErrExpired); got != tc.expired {
				t.Errorf("%v after issue: credited %d, err %v; want expired=%v", tc.after, n, err, tc.expired)
			}
			if !tc.expired && n != 1 {
				t.Errorf("%v after issue: credited %d, %v", tc.after, n, err)
			}
		})
	}
}
