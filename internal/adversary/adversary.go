// Package adversary is the dishonest peer, built from outside an honest one.
// The product's nocdn.Peer has no attack mode; the integrity and accounting
// experiments, the example and the test suites get one by wrapping the seams
// a Peer already exposes:
//
//   - Tamper is an http.Handler around Peer.Handler() that flips the middle
//     byte of every object in the /proxy bodies it relays;
//   - Records is an http.RoundTripper for Peer.SetHTTPClient that re-commits
//     each /usage/batch upload with inflated or replayed records;
//   - FlipAtRest rots a cached object where it lies in the segment files.
//
// Nothing here is imported by a daemon.
package adversary

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"hpop/internal/nocdn"
)

// Tamper relays requests to Next and, while On is set, flips the middle byte
// of every successful /proxy response body — whole objects and Range slices
// alike, and each object of a bundle — leaving status and headers as the
// honest peer wrote them. The peer behind it serves, verifies and counts
// exactly as it would unwrapped.
type Tamper struct {
	On   atomic.Bool
	Next http.Handler
}

func (t *Tamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.On.Load() || !strings.HasPrefix(r.URL.Path, "/proxy/") {
		t.Next.ServeHTTP(w, r)
		return
	}
	held := &heldResponse{ResponseWriter: w, status: http.StatusOK}
	t.Next.ServeHTTP(held, r)
	body := held.body.Bytes()
	if held.status/100 == 2 {
		objects := [][]byte{body}
		if lengths := w.Header().Get(nocdn.BundleHeader); lengths != "" {
			// The honest peer's bundle always splits; were it not to, it is
			// relayed untouched.
			objects, _ = nocdn.BundleItems(lengths, body)
		}
		for _, obj := range objects {
			if len(obj) > 0 {
				obj[len(obj)/2] ^= 0xFF
			}
		}
	}
	w.WriteHeader(held.status)
	w.Write(body)
}

// heldResponse buffers a response so its body can be altered before any of it
// is sent; headers go straight to the real writer's map.
type heldResponse struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (h *heldResponse) WriteHeader(code int)        { h.status = code }
func (h *heldResponse) Write(b []byte) (int, error) { return h.body.Write(b) }

// Records is a peer's outbound transport turned dishonest: with Inflate every
// record in a /usage/batch upload claims double its Bytes, with Duplicate
// every record is committed twice. The batch is decoded and re-committed
// under a fresh Merkle root, so the root matches what is uploaded and only
// the origin's signature and nonce checks can tell. Every other request
// passes through untouched.
type Records struct {
	// Next carries the requests; nil means http.DefaultTransport.
	Next      http.RoundTripper
	Inflate   bool
	Duplicate bool
}

func (c *Records) RoundTrip(req *http.Request) (*http.Response, error) {
	next := c.Next
	if next == nil {
		next = http.DefaultTransport
	}
	if !(c.Inflate || c.Duplicate) || req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/usage/batch") {
		return next.RoundTrip(req)
	}
	honest, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	batch, err := nocdn.DecodeBatch(honest)
	if err != nil {
		return nil, err
	}
	records := batch.Records
	if c.Inflate {
		for i := range records {
			records[i].Bytes *= 2
		}
	}
	if c.Duplicate {
		records = append(records, records...)
	}
	forged, err := nocdn.EncodeBatch(nocdn.NewRecordBatch(batch.PeerID, records))
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(forged))
	out.ContentLength = int64(len(forged))
	return next.RoundTrip(out)
}

// FlipAtRest flips the middle byte of every copy of data in the segment files
// under dir (a peer's AttachDiskCache directory) and reports whether it found
// one — false means the object is not disk-resident. The record headers, and
// so the SHA-256 each carries, are left intact: the next read or scrub must
// detect the flip. It finds the object by its bytes, not by parsing records,
// so it knows nothing of the segment format — and needs objects whose bytes
// do not occur inside one another.
func FlipAtRest(dir string, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	flipped := false
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, name := range names {
		seg, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		f, err := os.OpenFile(name, os.O_WRONLY, 0)
		if err != nil {
			continue
		}
		for at := 0; ; {
			i := bytes.Index(seg[at:], data)
			if i < 0 {
				break
			}
			mid := at + i + len(data)/2
			if _, err := f.WriteAt([]byte{seg[mid] ^ 0xFF}, int64(mid)); err == nil {
				flipped = true
			}
			at += i + len(data)
		}
		f.Close()
	}
	return flipped
}
