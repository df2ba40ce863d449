// Package auth provides the cryptographic plumbing shared by HPoP services:
//
//   - HMAC-SHA256 message signing with constant-time verification (NoCDN
//     usage records are "secured via a cryptographic signature using the
//     secret key furnished by the content provider").
//   - Nonce replay caches ("includes a nonce to prevent replay").
//   - Secrets and the errors a key lookup reports. The wrapper page's
//     "unique short-term secret key for each peer" is not kept here: the
//     NoCDN origin derives each key from its ID and one origin secret, and
//     stores none.
//   - Grant tokens: the data attic's QR-code payload, carrying everything a
//     provider needs to reach the right slice of a user's attic ("everything
//     from the IP address of the data attic to the proper initial
//     credentials to the location of the files within the attic").
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"time"
)

// Errors returned by verification.
var (
	ErrBadSignature = errors.New("auth: signature verification failed")
	ErrReplayed     = errors.New("auth: nonce already seen")
	ErrExpired      = errors.New("auth: credential expired")
	ErrUnknownKey   = errors.New("auth: unknown key id")
	ErrMalformed    = errors.New("auth: malformed token")
)

// NewSecret returns n cryptographically random bytes.
func NewSecret(n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("auth: crypto/rand failed: " + err.Error())
	}
	return b
}

// NewNonce returns a random 16-byte hex nonce.
func NewNonce() string {
	return hex.EncodeToString(NewSecret(16))
}

// Sign computes HMAC-SHA256(secret, msg), hex encoded.
func Sign(secret, msg []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(msg)
	return hex.EncodeToString(m.Sum(nil))
}

// Verify checks a hex HMAC-SHA256 signature in constant time.
func Verify(secret, msg []byte, sigHex string) error {
	want, err := hex.DecodeString(sigHex)
	if err != nil {
		return ErrBadSignature
	}
	m := hmac.New(sha256.New, secret)
	m.Write(msg)
	if !hmac.Equal(m.Sum(nil), want) {
		return ErrBadSignature
	}
	return nil
}

// NonceCache remembers seen nonces for a window, rejecting replays. Entries
// older than the window are purged lazily.
type NonceCache struct {
	mu        sync.Mutex
	seen      map[string]time.Time
	window    time.Duration
	now       func() time.Time
	purgeAt   int       // sweep when the map reaches this size
	lastSweep time.Time // ... or when a full window has passed without one
}

// noncePurgeFloor keeps the amortized sweep from thrashing on small maps.
const noncePurgeFloor = 1024

// NewNonceCache creates a cache with the given replay window: how long a
// nonce is remembered. A message must stop being accepted on its own, by an
// expiry or timestamp check, within the window after it is first seen.
func NewNonceCache(window time.Duration, now func() time.Time) *NonceCache {
	if now == nil {
		now = time.Now
	}
	if window <= 0 {
		window = 10 * time.Minute
	}
	return &NonceCache{
		seen:      make(map[string]time.Time),
		window:    window,
		now:       now,
		purgeAt:   noncePurgeFloor,
		lastSweep: now(),
	}
}

// Use records the nonce, returning ErrReplayed if it was already seen within
// the window.
func (c *NonceCache) Use(nonce string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	// Amortized lazy purge. A full sweep costs O(live window), so running
	// one per call makes Use quadratic once the window holds many nonces —
	// a settlement path submitting 100k+ nonces inside one window ground
	// to a tenth of its throughput on exactly that. Sweep only when the
	// map has doubled since the last sweep (amortized O(1) per Use) or a
	// whole window has passed (bounds idle memory); the replay check below
	// consults the entry's own timestamp, so a not-yet-swept expired entry
	// never falsely rejects.
	if len(c.seen) >= c.purgeAt || now.Sub(c.lastSweep) > c.window {
		for n, at := range c.seen {
			if now.Sub(at) > c.window {
				delete(c.seen, n)
			}
		}
		c.purgeAt = 2*len(c.seen) + noncePurgeFloor
		c.lastSweep = now
	}
	if at, ok := c.seen[nonce]; ok && now.Sub(at) <= c.window {
		return ErrReplayed
	}
	c.seen[nonce] = now
	return nil
}

// Release forgets nonces that Use just accepted, when the message they
// came with was not acted on after all: the next Use of each is accepted.
func (c *NonceCache) Release(nonces ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nonces {
		delete(c.seen, n)
	}
}

// Len returns the number of remembered nonces (diagnostics).
func (c *NonceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Export copies the live nonce window: every remembered nonce with the wall
// time it was first seen. Crash-recovery persists this so a restart cannot
// reopen the replay window — the TTL is wall-clock-anchored, so without the
// original seen times a fast restart would accept a nonce consumed seconds
// before the crash.
func (c *NonceCache) Export() map[string]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Time, len(c.seen))
	for n, at := range c.seen {
		out[n] = at
	}
	return out
}

// Restore re-anchors previously exported nonces at their original seen
// times. Entries already past the window are dropped; an entry already
// present keeps the earlier of the two times (the window must never shrink
// on replay). Idempotent, so journal replay may restore the same nonce more
// than once.
func (c *NonceCache) Restore(entries map[string]time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for n, at := range entries {
		if now.Sub(at) > c.window {
			continue
		}
		if prev, ok := c.seen[n]; ok && prev.Before(at) {
			continue
		}
		c.seen[n] = at
	}
}

// Grant is the attic's provider-bootstrap payload — the contents of the QR
// code the user hands a new provider. (The paper's prototype skipped QR
// rasterization and entered this manually; we encode it as base64 JSON.)
type Grant struct {
	// Endpoint is the attic's reachable URL (IP/host and port, DAV prefix).
	Endpoint string `json:"endpoint"`
	// Username/Password are the scoped initial credentials.
	Username string `json:"username"`
	Password string `json:"password"`
	// Scope is the path subtree within the attic the provider may access.
	Scope string `json:"scope"`
	// Provider is the human-readable provider name the user entered.
	Provider string `json:"provider"`
	// Expires bounds the grant's validity (zero = no expiry).
	Expires time.Time `json:"expires,omitempty"`
}

// Encode serializes the grant to its transportable form.
func (g Grant) Encode() string {
	b, err := json.Marshal(g)
	if err != nil {
		// Grant contains only marshalable fields; this cannot happen.
		panic("auth: grant marshal: " + err.Error())
	}
	return base64.URLEncoding.EncodeToString(b)
}

// DecodeGrant parses an encoded grant.
func DecodeGrant(s string) (Grant, error) {
	raw, err := base64.URLEncoding.DecodeString(s)
	if err != nil {
		return Grant{}, ErrMalformed
	}
	var g Grant
	if err := json.Unmarshal(raw, &g); err != nil {
		return Grant{}, ErrMalformed
	}
	if g.Endpoint == "" || g.Username == "" || g.Scope == "" {
		return Grant{}, ErrMalformed
	}
	return g, nil
}
