package nocdn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hpop/internal/sim"
)

func randomLeaves(rng *sim.RNG, n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		b := make([]byte, 1+rng.Intn(64))
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		leaves[i] = b
	}
	return leaves
}

// TestMerkleRootRecomputation: the root is a deterministic function of the
// leaf sequence, and any single-leaf change, reorder, or truncation moves it.
func TestMerkleRootRecomputation(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		leaves := randomLeaves(rng, n)
		root := MerkleRoot(leaves)
		if again := MerkleRoot(leaves); again != root {
			t.Fatalf("n=%d: root not deterministic: %s vs %s", n, root, again)
		}
		copied := make([][]byte, n)
		for i, l := range leaves {
			copied[i] = append([]byte(nil), l...)
		}
		if MerkleRoot(copied) != root {
			t.Fatalf("n=%d: root depends on backing arrays, not content", n)
		}
		// Tamper one random leaf.
		i := rng.Intn(n)
		tampered := make([][]byte, n)
		copy(tampered, leaves)
		tampered[i] = append(append([]byte(nil), leaves[i]...), 0x01)
		if MerkleRoot(tampered) == root {
			t.Fatalf("n=%d: tampering leaf %d did not change the root", n, i)
		}
		if n > 1 {
			swapped := make([][]byte, n)
			copy(swapped, leaves)
			j := (i + 1) % n
			if !bytes.Equal(swapped[i], swapped[j]) {
				swapped[i], swapped[j] = swapped[j], swapped[i]
				if MerkleRoot(swapped) == root {
					t.Fatalf("n=%d: reordering leaves did not change the root", n)
				}
			}
			if MerkleRoot(leaves[:n-1]) == root {
				t.Fatalf("n=%d: truncating did not change the root", n)
			}
		}
	}
	if MerkleRoot(nil) != MerkleRoot([][]byte{}) {
		t.Fatal("empty roots disagree")
	}
	if MerkleRoot(nil) == MerkleRoot([][]byte{{}}) {
		t.Fatal("empty tree collides with single empty leaf")
	}
}

// TestRecordBatchCommitment: the wire shape round-trips and the root
// commits to both the claims and their signatures.
func TestRecordBatchCommitment(t *testing.T) {
	secret := []byte("batch-secret")
	records := make([]UsageRecord, 5)
	for i := range records {
		records[i] = UsageRecord{
			Provider: "example.com",
			PeerID:   "peer-1",
			KeyID:    fmt.Sprintf("key-%d", i),
			Page:     "index",
			Bytes:    int64(1000 + i),
			Objects:  3,
			Nonce:    fmt.Sprintf("nonce-%d", i),
			IssuedAt: time.Unix(1700000000, 0).UTC(),
		}
		records[i].Sign(secret)
	}
	b := NewRecordBatch("peer-1", records)
	enc, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root != b.Root || dec.PeerID != b.PeerID || len(dec.Records) != len(b.Records) {
		t.Fatalf("round trip mismatch: %+v vs %+v", dec, b)
	}
	leaves := make([][]byte, len(dec.Records))
	for i := range dec.Records {
		leaves[i] = dec.Records[i].LeafBytes()
	}
	if MerkleRoot(leaves) != dec.Root {
		t.Fatal("decoded batch root does not recompute")
	}
	// Inflating a claim after committing breaks the root.
	dec.Records[2].Bytes *= 2
	leaves[2] = dec.Records[2].LeafBytes()
	if MerkleRoot(leaves) == dec.Root {
		t.Fatal("inflated record did not change the root")
	}
	// So does stripping a signature.
	dec2, _ := DecodeBatch(enc)
	dec2.Records[1].Signature = ""
	leaves2 := make([][]byte, len(dec2.Records))
	for i := range dec2.Records {
		leaves2[i] = dec2.Records[i].LeafBytes()
	}
	if MerkleRoot(leaves2) == dec2.Root {
		t.Fatal("stripped signature did not change the root")
	}
}
