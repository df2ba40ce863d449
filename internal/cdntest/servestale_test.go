package cdntest

// The serve-stale suite: stale-while-revalidate, stale-if-error during an
// origin outage, the hard edge of the stale windows, and the hash-epoch
// rule — a wrapper hash match makes an entry fresh at any age, a mismatch
// makes it unservable at any age. The last case drives the real loader
// through a brownout so the whole PR 5 + PR 7 interplay is certified
// end to end.

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"hpop/internal/nocdn"
)

func TestStaleWhileRevalidateServesImmediately(t *testing.T) {
	s := NewStack(t, Config{}) // max-age=60, swr=30
	body := []byte("swr payload")
	s.Publish("/swr.bin", body)

	s.WantXCache(0, "/swr.bin", nocdn.XCacheMiss)

	// Expired but inside the stale-while-revalidate window: the stale copy
	// is served immediately and the refresh happens off the request path.
	s.Clock.Advance(75 * time.Second)
	r := s.WantXCache(0, "/swr.bin", nocdn.XCacheStale)
	if !bytes.Equal(r.Body, body) {
		t.Fatalf("STALE body = %q, want %q", r.Body, body)
	}
	if r.Age() != 75 {
		t.Fatalf("STALE Age = %d, want 75", r.Age())
	}

	// The background revalidation lands shortly after; once it does, the
	// entry is fresh again and serves as a HIT.
	s.Eventually(func() bool {
		return s.GetOK(0, "/swr.bin").XCache() == nocdn.XCacheHit
	}, "background revalidation never refreshed the entry")
}

func TestStaleIfErrorServesDuringOriginOutage(t *testing.T) {
	s := NewStack(t, Config{}) // max-age=60, sie=300
	body := []byte("sie payload")
	s.Publish("/sie.bin", body)

	s.WantXCache(0, "/sie.bin", nocdn.XCacheMiss)

	// Expired beyond every fresh window, and the origin's content endpoint
	// is erroring: stale-if-error grants the stale serve instead of a 502.
	s.Clock.Advance(2 * time.Minute)
	s.OriginGate.ContentDown.Store(true)
	r := s.WantXCache(0, "/sie.bin", nocdn.XCacheStale)
	if !bytes.Equal(r.Body, body) {
		t.Fatalf("stale-if-error body = %q, want %q", r.Body, body)
	}

	// Origin back: the next serve revalidates normally.
	s.OriginGate.ContentDown.Store(false)
	s.WantXCache(0, "/sie.bin", nocdn.XCacheRevalidated)
}

func TestStaleBeyondEveryWindowFails(t *testing.T) {
	s := NewStack(t, Config{OriginOpts: []nocdn.OriginOption{
		nocdn.WithCachePolicy(10*time.Second, 0, 20*time.Second),
	}})
	body := []byte("bounded staleness")
	s.Publish("/bounded.bin", body)

	s.WantXCache(0, "/bounded.bin", nocdn.XCacheMiss)

	// Past max-age AND past stale-if-error: the grant is exhausted, so an
	// origin outage must surface as an error — never an arbitrarily old copy.
	s.Clock.Advance(31 * time.Second)
	s.OriginGate.ContentDown.Store(true)
	r := s.Get(0, "/bounded.bin")
	if r.Status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 beyond the stale-if-error window", r.Status)
	}
	if bytes.Contains(r.Body, body) {
		t.Fatalf("expired-beyond-window bytes leaked into the error response")
	}
}

// TestHashEpochGatesStale certifies the paper's freshness rule end to end:
// the wrapper hash — not the wall clock — is the authority for loader
// requests. An entry whose hash matches the current wrapper epoch is
// servable at any age even with the origin dark; an entry whose hash does
// not match is unservable at any age, stale windows notwithstanding.
func TestHashEpochGatesStale(t *testing.T) {
	s := NewStack(t, Config{})
	v1 := []byte("application v1")
	s.Publish("/app.js", v1)
	hashV1 := nocdn.HashBytes(v1)

	s.WantXCache(0, "/app.js", nocdn.XCacheMiss, nocdn.ExpectHashHeader, hashV1)

	// Far past max-age and stale-while-revalidate, origin fully dark: a
	// loader presenting the matching wrapper hash still gets the bytes —
	// the hash proves they are current, no revalidation required.
	s.Clock.Advance(2 * time.Minute)
	s.OriginGate.Down.Store(true)
	r := s.WantXCache(0, "/app.js", nocdn.XCacheStale, nocdn.ExpectHashHeader, hashV1)
	if !bytes.Equal(r.Body, v1) {
		t.Fatalf("hash-epoch stale serve body = %q, want %q", r.Body, v1)
	}

	// Publish v2: the wrapper epoch moves. A loader on the new epoch must
	// never receive the v1 bytes — with the content endpoint erroring, the
	// only correct answers are fresh v2 bytes or an error.
	s.OriginGate.Down.Store(false)
	v2 := []byte("application v2")
	s.Origin.AddObject("/app.js", v2)
	hashV2 := nocdn.HashBytes(v2)

	s.OriginGate.ContentDown.Store(true)
	r = s.Get(0, "/app.js", nocdn.ExpectHashHeader, hashV2)
	if r.Status != http.StatusBadGateway {
		t.Fatalf("epoch-mismatch status = %d, want 502 while the refetch cannot complete", r.Status)
	}
	if bytes.Contains(r.Body, v1) {
		t.Fatalf("superseded v1 bytes served to a v2-epoch loader")
	}

	// Content endpoint restored: the mismatch refetches and serves v2.
	s.OriginGate.ContentDown.Store(false)
	r = s.WantXCache(0, "/app.js", nocdn.XCacheMiss, nocdn.ExpectHashHeader, hashV2)
	if !bytes.Equal(r.Body, v2) {
		t.Fatalf("post-refetch body = %q, want %q", r.Body, v2)
	}
	s.WantXCache(0, "/app.js", nocdn.XCacheHit, nocdn.ExpectHashHeader, hashV2)
}

// TestBrownoutServeStaleInterplay drives the real loader through an origin
// content brownout: the wrapper endpoint stays up, /content is dark, and
// every peer's cached copy is long expired. Because the wrapper epoch is
// unchanged, hash-epoch freshness lets the peers serve their (wall-clock
// stale) copies and the page loads fully — no fallback, no degradation.
func TestBrownoutServeStaleInterplay(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	container := []byte("<html>brownout page</html>")
	script := []byte("console.log('brownout')")
	s.Publish("/page.html", container)
	s.Publish("/b.js", script)
	s.PublishPage("front", "/page.html", "/b.js")

	loader := s.Loader()
	loader.Brownout = true

	res, err := loader.LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) != 2 || res.TamperDetected {
		t.Fatalf("warm load result = %+v", res)
	}

	// Every peer copy expires past max-age + swr; only /content goes dark.
	s.Clock.Advance(2 * time.Minute)
	s.OriginGate.ContentDown.Store(true)

	res, err = loader.LoadPage("front")
	if err != nil {
		t.Fatalf("brownout load failed: %v", err)
	}
	if len(res.FallbackObjects) != 0 || len(res.Degraded) != 0 {
		t.Fatalf("brownout load fell back (fallback=%v degraded=%v); hash-epoch stale serves should have covered it",
			res.FallbackObjects, res.Degraded)
	}
	if !bytes.Equal(res.Body["/page.html"], container) || !bytes.Equal(res.Body["/b.js"], script) {
		t.Fatalf("brownout load bodies = %v", res.Body)
	}
}
