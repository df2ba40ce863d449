package nocdn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Merkle-committed settlement batches: a peer uploads its usage records
// under one Merkle root, committing to the exact record set before the
// origin looks at any of it. The origin recomputes the root over the leaves
// it received (any tampered, dropped or reordered record changes it), and
// the root is the batch's digest and its replay nonce: a root settles once.
// Every record's signature is then verified on its own.
//
// Domain separation follows the certificate-transparency convention: leaf
// hashes are prefixed 0x00 and interior nodes 0x01, so a leaf can never be
// reinterpreted as a node (or vice versa). Odd nodes at any level are
// promoted unchanged.

// ErrBadBatch refuses a whole settlement batch: its uploader is not a
// registered peer, its root does not recompute, or its root was already
// settled. A refused batch moves no ledger row.
var ErrBadBatch = errors.New("nocdn: settlement batch rejected")

// anyLeaf is how a leaf is held: the bytes an upload carried, or the string a
// peer queued.
type anyLeaf interface{ string | []byte }

// merkleLeaf hashes one leaf with the 0x00 domain prefix. buf is working
// space, grown and returned, so hashing a batch's leaves reuses one buffer.
func merkleLeaf[L anyLeaf](buf []byte, data L) ([32]byte, []byte) {
	buf = append(append(buf[:0], 0x00), data...)
	return sha256.Sum256(buf), buf
}

// merkleNode hashes two children with the 0x01 domain prefix.
func merkleNode(left, right [32]byte) [32]byte {
	var in [65]byte
	in[0] = 0x01
	copy(in[1:], left[:])
	copy(in[33:], right[:])
	return sha256.Sum256(in[:])
}

// emptyMerkleRoot is the root of a zero-leaf tree (a distinct domain prefix
// so it can never collide with a real leaf or node).
func emptyMerkleRoot() [32]byte {
	return sha256.Sum256([]byte{0x02})
}

// MerkleRoot computes the hex root over the leaves in order.
func MerkleRoot(leaves [][]byte) string { return merkleRoot(leaves) }

func merkleRoot[L anyLeaf](leaves []L) string {
	if len(leaves) == 0 {
		r := emptyMerkleRoot()
		return hex.EncodeToString(r[:])
	}
	level := make([][32]byte, len(leaves))
	var buf []byte
	for i, l := range leaves {
		level[i], buf = merkleLeaf(buf, l)
	}
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, merkleNode(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1]) // odd node promotes
		}
		level = next
	}
	return hex.EncodeToString(level[0][:])
}

// LeafBytes is the byte string a usage record contributes to its batch's
// Merkle tree: the signed canonical form plus the signature itself, so
// tampering with either the claim or its authentication breaks the root.
// It is what POST /usage/batch carries for the record, built by append
// into one allocation.
func (r UsageRecord) LeafBytes() []byte {
	b := r.appendCanonical(make([]byte, 0, r.canonicalCap()+1+len(r.Signature)))
	b = append(b, '|')
	return append(b, r.Signature...)
}

// leafFields is how many '|'-separated fields a leaf has: the canonical
// form's ten and the signature.
const leafFields = 11

// minLeaf is the shortest leaf parseLeaf accepts: every string field empty,
// both integers one digit, and a whole-second UTC time.
const minLeaf = "v2|||||0|0||2006-01-02T15:04:05Z||"

// errLeaf rejects an uploaded leaf that is not some record's LeafBytes.
var errLeaf = errors.New("nocdn: malformed leaf")

// parseLeaf is LeafBytes' inverse. The leaf must split into exactly
// leafFields fields, and its integers and timestamp must re-format to the
// text they were parsed from, so an accepted leaf is byte for byte the
// LeafBytes of the record returned. The record's strings share the leaf's
// memory.
func parseLeaf(leaf string) (UsageRecord, error) {
	var f [leafFields]string
	rest := leaf
	for i := 0; i < leafFields-1; i++ {
		j := strings.IndexByte(rest, '|')
		if j < 0 {
			return UsageRecord{}, fmt.Errorf("%w: %d fields, want %d", errLeaf, i+1, leafFields)
		}
		f[i], rest = rest[:j], rest[j+1:]
	}
	if strings.IndexByte(rest, '|') >= 0 {
		return UsageRecord{}, fmt.Errorf("%w: more than %d fields", errLeaf, leafFields)
	}
	f[leafFields-1] = rest
	if f[0] != "v2" {
		return UsageRecord{}, fmt.Errorf("%w: version %q", errLeaf, f[0])
	}
	n, err := strconv.ParseInt(f[5], 10, 64)
	if err != nil {
		return UsageRecord{}, fmt.Errorf("%w: bytes: %w", errLeaf, err)
	}
	objects, err := strconv.Atoi(f[6])
	if err != nil {
		return UsageRecord{}, fmt.Errorf("%w: objects: %w", errLeaf, err)
	}
	issued, err := time.Parse(time.RFC3339Nano, f[8])
	if err != nil {
		return UsageRecord{}, fmt.Errorf("%w: issuedAt: %w", errLeaf, err)
	}
	var buf [40]byte
	if string(strconv.AppendInt(buf[:0], n, 10)) != f[5] ||
		string(strconv.AppendInt(buf[:0], int64(objects), 10)) != f[6] ||
		string(issued.UTC().AppendFormat(buf[:0], time.RFC3339Nano)) != f[8] {
		return UsageRecord{}, fmt.Errorf("%w: a number or time not in canonical form", errLeaf)
	}
	return UsageRecord{
		Provider: f[1], PeerID: f[2], KeyID: f[3], Page: f[4],
		Bytes: n, Objects: objects, Nonce: f[7], IssuedAt: issued,
		Traceparent: f[9], Signature: f[10],
	}, nil
}

// recordLeaves returns every record's LeafBytes.
func recordLeaves(records []UsageRecord) [][]byte {
	leaves := make([][]byte, len(records))
	for i := range records {
		leaves[i] = records[i].LeafBytes()
	}
	return leaves
}

// RecordBatch is the Merkle-committed settlement upload: the peer's usage
// records under one root.
type RecordBatch struct {
	PeerID  string
	Root    string
	Records []UsageRecord
}

// maxBatchBody caps a POST /usage/batch body: the origin refuses a larger
// upload with 413, and Peer.Flush splits its queue into uploads under it.
const maxBatchBody = 8 << 20

// batchWire is the body of POST /usage/batch: each record travels as its
// leaf, so the origin hashes and verifies the bytes it received and decodes
// no record JSON. decodeBatch reads it; a body that also carries "records",
// the field of the shape before leaves, is refused with errLegacyBatch.
type batchWire struct {
	PeerID string   `json:"peerId"`
	Root   string   `json:"root"`
	Leaves []string `json:"leaves"`
}

// errLegacyBatch refuses an upload in the shape before leaves, which
// carried each record as a JSON object. POST /usage/batch answers it 415,
// which Peer.Flush takes as "not settled", so an old peer keeps its records
// until it is upgraded.
var errLegacyBatch = errors.New("nocdn: batch carries records, not leaves")

// NewRecordBatch builds the batch (and its root) over records.
func NewRecordBatch(peerID string, records []UsageRecord) RecordBatch {
	return RecordBatch{PeerID: peerID, Root: MerkleRoot(recordLeaves(records)), Records: records}
}

// EncodeBatch serializes a record batch for upload.
func EncodeBatch(b RecordBatch) ([]byte, error) {
	return encodeLeaves(b.PeerID, b.Root, recordLeaves(b.Records))
}

// encodeLeaves serializes an upload of leaves under root.
func encodeLeaves[L anyLeaf](peerID, root string, leaves []L) ([]byte, error) {
	w := batchWire{PeerID: peerID, Root: root, Leaves: make([]string, len(leaves))}
	for i, l := range leaves {
		w.Leaves[i] = string(l)
	}
	return json.Marshal(w)
}

// nextUpload encodes a prefix of a peer's queued leaves whose upload fits
// maxBatchBody, halving the prefix until it does, and returns its length and
// body. It takes at least one leaf: /record's 1 MiB cap keeps any one far
// under the limit.
func nextUpload(peerID string, leaves []string) (int, []byte, error) {
	for n := len(leaves); ; n /= 2 {
		body, err := encodeLeaves(peerID, merkleRoot(leaves[:n]), leaves[:n])
		if err != nil || len(body) <= maxBatchBody || n == 1 {
			return n, body, err
		}
	}
}

// DecodeBatch parses a record batch.
func DecodeBatch(data []byte) (RecordBatch, error) {
	b, _, err := decodeBatch(data)
	return b, err
}
