package cdntest

// The no-manipulation suite: the peer tier must be byte- and
// header-transparent, and when a peer does tamper, the loader's hash
// verification must keep the corrupted bytes from ever being rendered.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hpop/internal/nocdn"
)

func TestBodyPassThroughByteIdentical(t *testing.T) {
	s := NewStack(t, Config{})
	// Every byte value, repeated: any transcoding, trimming, or charset
	// mangling in the peer tier shows up as an inequality.
	body := make([]byte, 1024)
	for i := range body {
		body[i] = byte(i)
	}
	s.Publish("/all-bytes.bin", body)

	r := s.WantXCache(0, "/all-bytes.bin", nocdn.XCacheMiss)
	if !bytes.Equal(r.Body, body) {
		t.Fatal("MISS body not byte-identical to origin")
	}
	r = s.WantXCache(0, "/all-bytes.bin", nocdn.XCacheHit)
	if !bytes.Equal(r.Body, body) {
		t.Fatal("HIT body not byte-identical to origin")
	}
}

func TestContentTypePreserved(t *testing.T) {
	s := NewStack(t, Config{})
	s.Origin.AddObjectWithType("/blob", []byte{0x01, 0x02, 0x03}, "application/x-custom")
	s.Publish("/style.css", []byte("body { margin: 0 }"))

	for _, want := range []string{nocdn.XCacheMiss, nocdn.XCacheHit} {
		r := s.WantXCache(0, "/blob", want)
		if ct := r.Header.Get("Content-Type"); ct != "application/x-custom" {
			t.Fatalf("%s Content-Type = %q, want application/x-custom", want, ct)
		}
		r = s.WantXCache(0, "/style.css", want)
		if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/css") {
			t.Fatalf("%s Content-Type = %q, want text/css*", want, ct)
		}
	}
}

func TestOriginHeadersPreservedOnCacheServes(t *testing.T) {
	s := NewStack(t, Config{})
	body := []byte("header fidelity")
	s.Publish("/h.bin", body)
	wantETag := `"` + nocdn.HashBytes(body) + `"`

	s.WantXCache(0, "/h.bin", nocdn.XCacheMiss)
	r := s.WantXCache(0, "/h.bin", nocdn.XCacheHit)
	if got := r.Header.Get("ETag"); got != wantETag {
		t.Fatalf("HIT ETag = %q, want %q", got, wantETag)
	}
	wantCC := "max-age=60, stale-while-revalidate=30, stale-if-error=300"
	if got := r.Header.Get("Cache-Control"); got != wantCC {
		t.Fatalf("HIT Cache-Control = %q, want %q", got, wantCC)
	}
	if got := r.Header.Get(nocdn.ExpectHashHeader); got != nocdn.HashBytes(body) {
		t.Fatalf("HIT %s = %q, want the object hash", nocdn.ExpectHashHeader, got)
	}
}

func TestTamperedPeerDetectedAndBypassed(t *testing.T) {
	s := NewStack(t, Config{})
	container := []byte("<html>integrity matters</html>")
	s.Publish("/page.html", container)
	s.PublishPage("front", "/page.html")
	s.PeerTampers[0].On.Store(true)

	res, err := s.Loader().LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TamperDetected {
		t.Fatal("tampering went undetected")
	}
	if len(res.FallbackObjects) != 1 || res.FallbackObjects[0] != "/page.html" {
		t.Fatalf("fallback objects = %v, want [/page.html]", res.FallbackObjects)
	}
	if !bytes.Equal(res.Body["/page.html"], container) {
		t.Fatalf("rendered body = %q, want the origin's bytes", res.Body["/page.html"])
	}
	if n := res.PeerBytes[s.Peers[0].ID]; n != 0 {
		t.Fatalf("tampering peer credited %d bytes", n)
	}
}

// TestTamperedBytesNeverRendered is the hard guarantee: with every peer
// tampering, whatever a peer hands over fails verification, and the loader
// renders only origin bytes — or, when the origin cannot help either,
// nothing at all. Modified bytes never reach a Body entry.
func TestTamperedBytesNeverRendered(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	container := []byte("<html>authentic</html>")
	s.Publish("/page.html", container)
	s.PublishPage("front", "/page.html")
	for _, tamper := range s.PeerTampers {
		tamper.On.Store(true)
	}

	// The raw peer response really is corrupted — this is not a vacuous test.
	raw := s.GetOK(0, "/page.html")
	if nocdn.HashBytes(raw.Body) == nocdn.HashBytes(container) {
		t.Fatal("tamper mode served unmodified bytes; the scenario is vacuous")
	}

	loader := s.Loader()
	loader.Brownout = true
	res, err := loader.LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TamperDetected {
		t.Fatal("tampering went undetected")
	}
	if !bytes.Equal(res.Body["/page.html"], container) {
		t.Fatalf("rendered body = %q, want the origin's bytes", res.Body["/page.html"])
	}

	// Origin content dark too: the only acceptable outcome is a degraded
	// page with NO body entry — never the tampered copy.
	s.OriginGate.ContentDown.Store(true)
	res, err = loader.LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != "/page.html" {
		t.Fatalf("degraded = %v, want [/page.html]", res.Degraded)
	}
	if body, ok := res.Body["/page.html"]; ok {
		t.Fatalf("degraded object still produced a body (%d bytes) — unverified bytes rendered", len(body))
	}
}

func TestRangeServedFromVerifiedCache(t *testing.T) {
	s := NewStack(t, Config{})
	body := make([]byte, 1000)
	for i := range body {
		body[i] = byte(i % 251)
	}
	s.Publish("/ranged.bin", body)

	s.WantXCache(0, "/ranged.bin", nocdn.XCacheMiss)
	r := s.Get(0, "/ranged.bin", "Range", "bytes=100-199")
	if r.Status != http.StatusPartialContent {
		t.Fatalf("range status = %d, want 206", r.Status)
	}
	if want := fmt.Sprintf("bytes 100-199/%d", len(body)); r.Header.Get("Content-Range") != want {
		t.Fatalf("Content-Range = %q, want %q", r.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(r.Body, body[100:200]) {
		t.Fatal("range bytes differ from the origin slice")
	}
}
