// Package nocdn implements the paper's NoCDN (§IV-B, Fig. 2): content
// delivery through recruited residential peers with no third-party CDN.
//
// The protocol has three roles:
//
//   - Origin (the content provider): serves only a dynamically generated
//     wrapper page per request — the peer assignment for every page object,
//     a cryptographic hash of each object, a unique short-term secret key
//     per referenced peer, and a nonce. It also receives batched usage
//     records from peers, verifying signatures, rejecting replays, and
//     running anomaly detection against what it actually assigned.
//
//   - Peer (an HPoP): a normal caching reverse proxy with virtual hosting,
//     so one peer serves many content providers. Peers accumulate
//     client-signed usage records and periodically upload them for payment.
//
//   - Loader (the wrapper page's JavaScript, here a Go client): fetches
//     every object from its assigned peer, verifies hashes, falls back to
//     the origin on tampering, assembles the page, and hands each peer a
//     signed usage record.
package nocdn

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpop/internal/auth"
)

// Protocol errors.
var (
	ErrUnknownPage   = errors.New("nocdn: unknown page")
	ErrUnknownObject = errors.New("nocdn: unknown object")
	ErrNoPeers       = errors.New("nocdn: no registered peers")
	ErrTampered      = errors.New("nocdn: object hash mismatch")
	ErrBadRecord     = errors.New("nocdn: usage record rejected")
)

// HashBytes returns the hex SHA-256 of data — the integrity primitive the
// wrapper page carries for every object.
func HashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// Object is one piece of site content.
type Object struct {
	Path string `json:"path"`
	Data []byte `json:"-"`
	Hash string `json:"hash"`
	// ContentType is the media type the origin serves (and peers must
	// replay) for this object; detected at publish time when not set.
	ContentType string `json:"contentType,omitempty"`
}

// Page is a container object plus its recursively embedded objects.
type Page struct {
	Name      string
	Container string   // object path of the HTML container
	Embedded  []string // object paths
}

// PeerKey is the short-term secret the wrapper furnishes for one peer.
type PeerKey struct {
	KeyID  string `json:"keyId"`
	Secret string `json:"secret"` // hex; delivered to the client over TLS
}

// ChunkRef describes one byte range of an object fetched from one peer —
// the "Leveraging Redundancy" option where clients download chunks from
// disparate peers.
type ChunkRef struct {
	PeerID  string `json:"peerId"`
	PeerURL string `json:"peerUrl"`
	Offset  int    `json:"offset"`
	Length  int    `json:"length"`
}

// PeerRef names one peer that can serve an object — the replica entries of
// an ObjectRef ("Leveraging Redundancy": the wrapper can list alternates so
// the loader routes around a dead primary without an origin round trip).
type PeerRef struct {
	PeerID  string `json:"peerId"`
	PeerURL string `json:"peerUrl"`
}

// ObjectRef is one wrapper-page entry: where to get an object and how to
// verify it.
type ObjectRef struct {
	Path    string `json:"path"`
	Hash    string `json:"hash"`
	Size    int    `json:"size"`
	PeerID  string `json:"peerId"`
	PeerURL string `json:"peerUrl"`
	// Replicas lists alternate peers holding keys for this object (the
	// primary excluded). The origin assigns bytes under every replica's key
	// too, so whichever peer actually serves can settle its usage record.
	Replicas []PeerRef  `json:"replicas,omitempty"`
	Chunks   []ChunkRef `json:"chunks,omitempty"`
}

// Wrapper is the wrapper page: the only thing the origin must serve per
// page view. (In the paper it is HTML embedding the loader script; the
// structure below is that page's payload.)
type Wrapper struct {
	Provider  string             `json:"provider"`
	Page      string             `json:"page"`
	Container ObjectRef          `json:"container"`
	Objects   []ObjectRef        `json:"objects"`
	Keys      map[string]PeerKey `json:"keys"` // peerID -> key
	Nonce     string             `json:"nonce"`
	IssuedAt  time.Time          `json:"issuedAt"`
	Loader    string             `json:"loader"` // loader script version tag (cacheable)
}

// UsageRecord is the client-signed receipt a peer accumulates and later
// uploads for payment.
type UsageRecord struct {
	Provider string    `json:"provider"`
	PeerID   string    `json:"peerId"`
	KeyID    string    `json:"keyId"`
	Page     string    `json:"page"`
	Bytes    int64     `json:"bytes"`
	Objects  int       `json:"objects"`
	Nonce    string    `json:"nonce"`
	IssuedAt time.Time `json:"issuedAt"`
	// Traceparent carries the loader's delivery span context (W3C
	// traceparent format) so the origin's settlement span joins the page
	// view's distributed trace. It is signed: a peer cannot re-attribute a
	// record to a different trace without breaking the signature.
	Traceparent string `json:"traceparent,omitempty"`
	// Signature is HMAC-SHA256 over CanonicalBytes with the peer's
	// short-term key.
	Signature string `json:"signature"`
}

// CanonicalBytes is the byte string the signature covers. Every field that
// affects payment is included; JSON field order never matters. (Version v2
// added the traceparent field; there are no v1 signers left.) It is built by
// append into one allocation.
func (r UsageRecord) CanonicalBytes() []byte {
	return r.appendCanonical(make([]byte, 0, r.canonicalCap()))
}

// appendCanonical appends the canonical form: "v2" and the payment fields,
// '|'-separated, with the integers in decimal and IssuedAt in UTC RFC 3339.
func (r UsageRecord) appendCanonical(b []byte) []byte {
	b = append(b, "v2|"...)
	b = append(append(b, r.Provider...), '|')
	b = append(append(b, r.PeerID...), '|')
	b = append(append(b, r.KeyID...), '|')
	b = append(append(b, r.Page...), '|')
	b = append(strconv.AppendInt(b, r.Bytes, 10), '|')
	b = append(strconv.AppendInt(b, int64(r.Objects), 10), '|')
	b = append(append(b, r.Nonce...), '|')
	b = append(r.IssuedAt.UTC().AppendFormat(b, time.RFC3339Nano), '|')
	return append(b, r.Traceparent...)
}

// canonicalCap is room for the canonical form: its string fields, the
// longest decimal int64 twice, a four-digit-year timestamp and the
// separators.
func (r UsageRecord) canonicalCap() int {
	const fixed = len("v2") + 9 + 2*len("-9223372036854775808") + len("2006-01-02T15:04:05.999999999Z")
	return fixed + len(r.Provider) + len(r.PeerID) + len(r.KeyID) + len(r.Page) + len(r.Nonce) + len(r.Traceparent)
}

// ErrFieldSeparator refuses a provider name, peer ID or page name holding
// '|', the byte that separates a usage record's canonical fields (a leaf
// must split back into exactly its record), or '\n', the byte that
// separates the leaves a peer spools.
var ErrFieldSeparator = errors.New("nocdn: name contains '|' or '\\n', a usage-record separator")

// CheckName refuses a name that could not travel as a field of a usage
// record's leaf. The origin checks page and peer names as they are
// registered; nocdnd checks its provider and peer flags.
func CheckName(name string) error {
	if strings.ContainsAny(name, "|\n") {
		return fmt.Errorf("%w: %q", ErrFieldSeparator, name)
	}
	return nil
}

// Sign computes and attaches the signature.
func (r *UsageRecord) Sign(secret []byte) {
	r.Signature = auth.Sign(secret, r.CanonicalBytes())
}

// VerifySignature checks the record against a secret.
func (r UsageRecord) VerifySignature(secret []byte) error {
	return auth.Verify(secret, r.CanonicalBytes(), r.Signature)
}

// ---- Peer selection ----

// PeerInfo is the origin's view of one recruited peer.
type PeerInfo struct {
	ID  string
	URL string
	// RTTMillis approximates proximity to the requesting client population.
	RTTMillis float64
	// Assigned counts outstanding object assignments (load signal).
	Assigned int
	// Suspended marks peers pulled from rotation by anomaly detection.
	Suspended bool
}

// SelectionPolicy shapes how the assignment ring picks a peer for each page
// object.
type SelectionPolicy int

// Selection policies — the peer-selection ablation from DESIGN.md.
const (
	// SelectRandom takes the ring's choice: the hash of (page, object, slot)
	// spreads objects uniformly and, keyed per client slot, keeps the
	// payment path unpredictable (the collusion mitigation).
	SelectRandom SelectionPolicy = iota + 1
	// SelectProximity prefers the lowest-RTT peer among the first few
	// eligible ring successors.
	SelectProximity
	// SelectLoadAware tightens the per-map load bound from
	// DefaultRingLoadFactor to 1.
	SelectLoadAware
)

// String implements fmt.Stringer.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectRandom:
		return "random"
	case SelectProximity:
		return "proximity"
	case SelectLoadAware:
		return "loadAware"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(p))
	}
}
