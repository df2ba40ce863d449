package nocdn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// merkleLeaf hashes one leaf with the 0x00 domain prefix.
func merkleLeaf(data []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// merkleNode hashes two children with the 0x01 domain prefix.
func merkleNode(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
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
	for i, l := range leaves {
		level[i] = merkleLeaf(l)
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
	for i, l := range leaves {
		level[i] = merkleLeaf(l)
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
	h := merkleLeaf(leaf)
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
func (r UsageRecord) LeafBytes() []byte {
	b := r.CanonicalBytes()
	b = append(b, '|')
	return append(b, r.Signature...)
}

// RecordBatch is the Merkle-committed settlement upload: the peer's usage
// records under one root. POST /usage/batch carries this shape.
type RecordBatch struct {
	PeerID  string        `json:"peerId"`
	Root    string        `json:"root"`
	Records []UsageRecord `json:"records"`
}

// NewRecordBatch builds the batch (and its root) over records.
func NewRecordBatch(peerID string, records []UsageRecord) RecordBatch {
	leaves := make([][]byte, len(records))
	for i, r := range records {
		leaves[i] = r.LeafBytes()
	}
	return RecordBatch{PeerID: peerID, Root: MerkleRoot(leaves), Records: records}
}

// EncodeBatch serializes a record batch for upload.
func EncodeBatch(b RecordBatch) ([]byte, error) {
	return json.Marshal(b)
}

// DecodeBatch parses a record batch.
func DecodeBatch(data []byte) (RecordBatch, error) {
	var b RecordBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return RecordBatch{}, fmt.Errorf("nocdn: decode batch: %w", err)
	}
	return b, nil
}
