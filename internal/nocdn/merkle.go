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
// origin looks at any of it. The origin recomputes the root (any tampered
// or reordered record changes it), then fully verifies only a sample of
// leaves — settlement's expensive work (HMAC verification) becomes
// O(batches·K) instead of O(page views), while the commitment keeps lying
// unprofitable: one non-verifying sampled leaf flags the uploader, and the
// whole batch is rejected.
//
// Domain separation follows the certificate-transparency convention: leaf
// hashes are prefixed 0x00 and interior nodes 0x01, so a leaf can never be
// reinterpreted as a node (or vice versa) to forge a proof. Odd nodes at
// any level are promoted unchanged.

// ErrBadBatch rejects a whole settlement batch (root mismatch, replayed
// root, or a sampled leaf that failed verification).
var ErrBadBatch = errors.New("nocdn: settlement batch rejected")

// merkleLeaf hashes one leaf with the 0x00 domain prefix. buf is working
// space, grown and returned, so hashing a batch's leaves reuses one buffer.
func merkleLeaf(buf, data []byte) ([32]byte, []byte) {
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
func MerkleRoot(leaves [][]byte) string {
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

// MerkleProof is an inclusion proof for one leaf: the sibling hashes from
// the leaf's level up to the root. Levels where the node is promoted (odd
// tail) contribute no sibling; Verify reconstructs which levels those are
// from Index and Leaves, so the path needs no side markers.
type MerkleProof struct {
	// Index is the leaf's position in the batch.
	Index int `json:"index"`
	// Leaves is the batch size the tree was built over.
	Leaves int `json:"leaves"`
	// Path holds the hex sibling hashes, leaf level first.
	Path []string `json:"path"`
}

// BuildMerkleProof constructs the inclusion proof for leaves[index].
func BuildMerkleProof(leaves [][]byte, index int) (MerkleProof, error) {
	if index < 0 || index >= len(leaves) {
		return MerkleProof{}, fmt.Errorf("nocdn: merkle proof index %d out of %d leaves", index, len(leaves))
	}
	p := MerkleProof{Index: index, Leaves: len(leaves)}
	level := make([][32]byte, len(leaves))
	var buf []byte
	for i, l := range leaves {
		level[i], buf = merkleLeaf(buf, l)
	}
	i := index
	for len(level) > 1 {
		if sib := i ^ 1; sib < len(level) {
			p.Path = append(p.Path, hex.EncodeToString(level[sib][:]))
		}
		next := make([][32]byte, 0, len(level)/2+1)
		for j := 0; j+1 < len(level); j += 2 {
			next = append(next, merkleNode(level[j], level[j+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		i /= 2
	}
	return p, nil
}

// VerifyMerkleProof reports whether leaf sits at proof.Index of a
// proof.Leaves-wide tree with the given hex root. It never panics on
// malformed input — a proof that doesn't parse simply doesn't verify.
func VerifyMerkleProof(leaf []byte, proof MerkleProof, root string) bool {
	want, err := hex.DecodeString(root)
	if err != nil || len(want) != 32 {
		return false
	}
	if proof.Leaves <= 0 || proof.Index < 0 || proof.Index >= proof.Leaves {
		return false
	}
	h, _ := merkleLeaf(nil, leaf)
	i, width, used := proof.Index, proof.Leaves, 0
	for width > 1 {
		sib := i ^ 1
		if sib < width {
			if used >= len(proof.Path) {
				return false
			}
			sb, err := hex.DecodeString(proof.Path[used])
			if err != nil || len(sb) != 32 {
				return false
			}
			used++
			var sh [32]byte
			copy(sh[:], sb)
			if i%2 == 0 {
				h = merkleNode(h, sh)
			} else {
				h = merkleNode(sh, h)
			}
		}
		// Odd tail: the node promotes unchanged, no sibling consumed.
		i /= 2
		width = (width + 1) / 2
	}
	if used != len(proof.Path) {
		return false // trailing garbage in the path is not a valid proof
	}
	var w [32]byte
	copy(w[:], want)
	return h == w
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
// no record JSON. Records is the field of the shape before leaves; a body
// carrying it is refused with errLegacyBatch.
type batchWire struct {
	PeerID  string          `json:"peerId"`
	Root    string          `json:"root"`
	Leaves  []string        `json:"leaves"`
	Records json.RawMessage `json:"records,omitempty"`
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
func encodeLeaves(peerID, root string, leaves [][]byte) ([]byte, error) {
	w := batchWire{PeerID: peerID, Root: root, Leaves: make([]string, len(leaves))}
	for i, l := range leaves {
		w.Leaves[i] = string(l)
	}
	return json.Marshal(w)
}

// nextUpload encodes a prefix of leaves whose upload fits maxBatchBody,
// halving the prefix until it does, and returns its length and body. It
// takes at least one leaf: /record's 1 MiB cap keeps any one far under the
// limit.
func nextUpload(peerID string, leaves [][]byte) (int, []byte, error) {
	for n := len(leaves); ; n /= 2 {
		body, err := encodeLeaves(peerID, MerkleRoot(leaves[:n]), leaves[:n])
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

// decodeBatch parses an upload into its batch and the leaves it carried, in
// order; the leaves share one buffer.
func decodeBatch(data []byte) (RecordBatch, [][]byte, error) {
	var w batchWire
	if err := json.Unmarshal(data, &w); err != nil {
		return RecordBatch{}, nil, fmt.Errorf("nocdn: decode batch: %w", err)
	}
	if w.Records != nil {
		return RecordBatch{}, nil, errLegacyBatch
	}
	size := 0
	for _, l := range w.Leaves {
		size += len(l)
	}
	buf := make([]byte, 0, size)
	b := RecordBatch{PeerID: w.PeerID, Root: w.Root, Records: make([]UsageRecord, len(w.Leaves))}
	leaves := make([][]byte, len(w.Leaves))
	for i, l := range w.Leaves {
		r, err := parseLeaf(l)
		if err != nil {
			return RecordBatch{}, nil, fmt.Errorf("nocdn: decode batch: leaf %d: %w", i, err)
		}
		b.Records[i] = r
		buf = append(buf, l...)
		leaves[i] = buf[len(buf)-len(l) : len(buf) : len(buf)]
	}
	return b, leaves, nil
}
