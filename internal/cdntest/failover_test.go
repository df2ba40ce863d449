package cdntest

// The failover suite: where the bytes come from when a peer or the origin
// drops out — replica peers first, origin fallback last, and warm peers
// riding out a full origin outage.

import (
	"bytes"
	"testing"
	"time"

	"hpop/internal/nocdn"
)

func TestFailoverToReplicaPeer(t *testing.T) {
	s := NewStack(t, Config{
		Peers:    3,
		Replicas: 2,
	})
	container := []byte("<html>replicated</html>")
	s.Publish("/page.html", container)
	s.PublishPage("front", "/page.html")

	// Same client identity as the loader below, so the assignment inspected
	// here is exactly the pooled map the loader receives.
	w, err := s.Origin.AssignWrapper("front", "viewer")
	if err != nil {
		t.Fatal(err)
	}
	primary := w.Container.PeerID
	if len(w.Container.Replicas) == 0 {
		t.Fatalf("wrapper carries no replicas: %+v", w.Container)
	}
	for i, p := range s.Peers {
		if p.ID == primary {
			s.PeerGates[i].Down.Store(true)
		}
	}

	loader := s.Loader()
	loader.ClientID = "viewer"
	res, err := loader.LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FallbackObjects) != 0 {
		t.Fatalf("fell back to origin %v; a replica peer should have served", res.FallbackObjects)
	}
	if !bytes.Equal(res.Body["/page.html"], container) {
		t.Fatalf("body = %q, want %q", res.Body["/page.html"], container)
	}
	if n := res.PeerBytes[primary]; n != 0 {
		t.Fatalf("dead primary %s credited %d bytes", primary, n)
	}
	var replicaBytes int64
	for _, n := range res.PeerBytes {
		replicaBytes += n
	}
	if replicaBytes != int64(len(container)) {
		t.Fatalf("replica bytes = %d, want %d", replicaBytes, len(container))
	}
}

func TestFailoverToOriginWhenAllPeersDown(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	container := []byte("<html>origin of last resort</html>")
	s.Publish("/page.html", container)
	s.PublishPage("front", "/page.html")

	for _, g := range s.PeerGates {
		g.Down.Store(true)
	}

	res, err := s.Loader().LoadPage("front")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FallbackObjects) != 1 || res.FallbackObjects[0] != "/page.html" {
		t.Fatalf("fallback objects = %v, want [/page.html]", res.FallbackObjects)
	}
	if !bytes.Equal(res.Body["/page.html"], container) {
		t.Fatalf("body = %q, want %q", res.Body["/page.html"], container)
	}
	if res.TamperDetected {
		t.Fatal("peer outage misreported as tampering")
	}
}

func TestOriginOutageWarmPeersStillServe(t *testing.T) {
	s := NewStack(t, Config{})
	body := []byte("survives the outage")
	s.Publish("/warm.bin", body)

	s.WantXCache(0, "/warm.bin", nocdn.XCacheMiss)

	// Whole origin dark — wrapper and content. A fresh cached copy needs
	// no origin round trip, so the edge keeps serving.
	s.OriginGate.Down.Store(true)
	s.Clock.Advance(30 * time.Second)
	r := s.WantXCache(0, "/warm.bin", nocdn.XCacheHit)
	if !bytes.Equal(r.Body, body) {
		t.Fatalf("outage HIT body = %q, want %q", r.Body, body)
	}
}

func TestColdPeerBackfillsFromOrigin(t *testing.T) {
	s := NewStack(t, Config{Peers: 2})
	body := []byte("warm here, cold there")
	s.Publish("/split.bin", body)

	// Warm only peer 0; peer 1 has never seen the object.
	s.WantXCache(0, "/split.bin", nocdn.XCacheMiss)
	s.WantXCache(0, "/split.bin", nocdn.XCacheHit)

	// A cold peer is not an outage: it backfills from the origin and serves.
	r := s.WantXCache(1, "/split.bin", nocdn.XCacheMiss)
	if !bytes.Equal(r.Body, body) {
		t.Fatalf("cold peer body = %q, want %q", r.Body, body)
	}
	if got := s.Peers[1].OriginFetches(); got != 1 {
		t.Fatalf("cold peer origin fetches = %d, want 1", got)
	}
	s.WantXCache(1, "/split.bin", nocdn.XCacheHit)
}
