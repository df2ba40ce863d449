package auth

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSignVerify(t *testing.T) {
	secret := []byte("shared-secret")
	msg := []byte("usage record: 12345 bytes served")
	sig := Sign(secret, msg)
	if err := Verify(secret, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := Verify(secret, []byte("tampered"), sig); err != ErrBadSignature {
		t.Errorf("tampered message err = %v, want ErrBadSignature", err)
	}
	if err := Verify([]byte("wrong-key"), msg, sig); err != ErrBadSignature {
		t.Errorf("wrong key err = %v, want ErrBadSignature", err)
	}
	if err := Verify(secret, msg, "not-hex!"); err != ErrBadSignature {
		t.Errorf("malformed sig err = %v, want ErrBadSignature", err)
	}
}

func TestSignProperty(t *testing.T) {
	f := func(secret, msg []byte) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		return Verify(secret, msg, Sign(secret, msg)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSecretAndNonceUnique(t *testing.T) {
	a, b := NewSecret(32), NewSecret(32)
	if string(a) == string(b) {
		t.Error("two secrets identical")
	}
	if NewNonce() == NewNonce() {
		t.Error("two nonces identical")
	}
	if len(NewNonce()) != 32 {
		t.Errorf("nonce length = %d, want 32 hex chars", len(NewNonce()))
	}
}

func TestNonceCacheReplay(t *testing.T) {
	c := NewNonceCache(time.Minute, nil)
	n := NewNonce()
	if err := c.Use(n); err != nil {
		t.Fatal(err)
	}
	if err := c.Use(n); err != ErrReplayed {
		t.Errorf("replay err = %v, want ErrReplayed", err)
	}
	if err := c.Use(NewNonce()); err != nil {
		t.Errorf("fresh nonce err = %v", err)
	}
}

func TestNonceCachePurge(t *testing.T) {
	current := time.Now()
	clock := func() time.Time { return current }
	c := NewNonceCache(time.Minute, clock)
	c.Use("old")
	current = current.Add(2 * time.Minute)
	// After the window the nonce is forgotten: re-use is allowed (the
	// accompanying timestamp check is the signer's job).
	if err := c.Use("old"); err != nil {
		t.Errorf("expired nonce err = %v", err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after purge, want 1", c.Len())
	}
}

func TestGrantRoundTrip(t *testing.T) {
	g := Grant{
		Endpoint: "http://203.0.113.5:8080/dav",
		Username: "provider-clinic",
		Password: "s3cret",
		Scope:    "/health/clinic-a",
		Provider: "Clinic A",
		Expires:  time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	enc := g.Encode()
	got, err := DecodeGrant(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Errorf("round trip = %+v, want %+v", got, g)
	}
}

func TestDecodeGrantErrors(t *testing.T) {
	if _, err := DecodeGrant("!!!not-base64!!!"); err != ErrMalformed {
		t.Errorf("bad base64 err = %v", err)
	}
	if _, err := DecodeGrant("aGVsbG8="); err != ErrMalformed { // "hello"
		t.Errorf("bad json err = %v", err)
	}
	// Missing required fields.
	empty := Grant{Provider: "x"}
	if _, err := DecodeGrant(empty.Encode()); err != ErrMalformed {
		t.Errorf("empty grant err = %v", err)
	}
}
