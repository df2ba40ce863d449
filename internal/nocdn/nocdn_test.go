package nocdn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// testSite builds an origin with one page of objects and n peer servers,
// all signed up, returning everything wired together.
type testSite struct {
	origin    *Origin
	originSrv *httptest.Server
	peers     []*Peer
	peerSrvs  []*httptest.Server
	loader    *Loader
}

func newTestSite(t *testing.T, peerCount int, opts ...OriginOption) *testSite {
	t.Helper()
	o := NewOrigin("example.com", append([]OriginOption{WithRNG(sim.NewRNG(7))}, opts...)...)
	o.AddObject("/index.html", bytes.Repeat([]byte("<html>"), 500))
	for _, suffix := range []string{"a", "b", "c", "d"} {
		o.AddObject("/img/"+suffix+".png", bytes.Repeat([]byte(suffix), 10000))
	}
	if err := o.AddPage(Page{
		Name:      "home",
		Container: "/index.html",
		Embedded:  []string{"/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"},
	}); err != nil {
		t.Fatal(err)
	}
	site := &testSite{origin: o}
	site.originSrv = httptest.NewServer(o.Handler())
	t.Cleanup(site.originSrv.Close)
	for i := 0; i < peerCount; i++ {
		p := NewPeer(peerID(i), 0)
		p.SignUp("example.com", site.originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		t.Cleanup(srv.Close)
		site.peers = append(site.peers, p)
		site.peerSrvs = append(site.peerSrvs, srv)
		o.RegisterPeer(peerID(i), srv.URL, float64(10+i*20))
	}
	site.loader = &Loader{OriginURL: site.originSrv.URL}
	return site
}

func peerID(i int) string { return "peer-" + string(rune('a'+i)) }

func TestWrapperGeneration(t *testing.T) {
	s := newTestSite(t, 3)
	w, err := s.origin.AssignWrapper("home", "c")
	if err != nil {
		t.Fatal(err)
	}
	if w.Page != "home" || w.Provider != "example.com" {
		t.Errorf("wrapper header = %+v", w)
	}
	if len(w.Objects) != 4 {
		t.Fatalf("objects = %d", len(w.Objects))
	}
	if w.Container.Hash == "" || w.Container.PeerURL == "" {
		t.Error("container ref incomplete")
	}
	if w.Nonce == "" || w.Loader != "loader-v1" {
		t.Error("wrapper missing nonce/loader")
	}
	// Every referenced peer has a key.
	for _, ref := range append([]ObjectRef{w.Container}, w.Objects...) {
		if _, ok := w.Keys[ref.PeerID]; !ok {
			t.Errorf("no key for peer %s", ref.PeerID)
		}
	}
	if _, err := s.origin.AssignWrapper("ghost", "c"); err != ErrUnknownPage {
		t.Errorf("ghost page err = %v", err)
	}
}

func TestWrapperRequiresPeers(t *testing.T) {
	o := NewOrigin("x")
	o.AddObject("/i", []byte("c"))
	o.AddPage(Page{Name: "p", Container: "/i"})
	if _, err := o.AssignWrapper("p", "c"); err != ErrNoPeers {
		t.Errorf("err = %v, want ErrNoPeers", err)
	}
}

func TestAddPageValidation(t *testing.T) {
	o := NewOrigin("x")
	o.AddObject("/i", []byte("c"))
	if err := o.AddPage(Page{Name: "p", Container: "/missing"}); err == nil {
		t.Error("missing container accepted")
	}
	if err := o.AddPage(Page{Name: "p", Container: "/i", Embedded: []string{"/nope"}}); err == nil {
		t.Error("missing embedded object accepted")
	}
}

func TestFullPageWorkflow(t *testing.T) {
	s := newTestSite(t, 3)
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) != 5 {
		t.Fatalf("assembled objects = %d, want 5", len(res.Body))
	}
	if res.TamperDetected {
		t.Error("tamper flagged on honest peers")
	}
	// Content integrity end to end.
	if !bytes.Equal(res.Body["/img/a.png"], bytes.Repeat([]byte("a"), 10000)) {
		t.Error("object content wrong")
	}
	// Usage records were dropped at every serving peer.
	if res.RecordsDelivered == 0 {
		t.Error("no usage records delivered")
	}
	pending := 0
	for _, p := range s.peers {
		pending += p.PendingRecords()
	}
	if pending != res.RecordsDelivered {
		t.Errorf("peers hold %d records, loader delivered %d", pending, res.RecordsDelivered)
	}
}

// TestPageNameNeedsEscaping loads, over HTTP, a page whose name and object
// paths hold bytes a URL query or path must escape: the wrapper is asked
// for by the page's name, the published bytes come from the peer (the
// large object in Range chunks), and the peer is credited for them. The wrapper and the batch carry the name as
// json.Marshal writes it, "a\u0026b \u003cx\u003e", so both decoders
// unquote it.
func TestPageNameNeedsEscaping(t *testing.T) {
	o := NewOrigin("example.com", WithRNG(sim.NewRNG(7)), WithChunking(2, 64<<10))
	objects := map[string][]byte{
		"/a&b <x>/50%off+1.html": []byte("<html>a&b</html>"),
		"/x y+z%2.css":           bytes.Repeat([]byte("css"), 1000),
		"/big #1%.bin":           bytes.Repeat([]byte("big"), 50000),
	}
	for path, data := range objects {
		o.AddObject(path, data)
	}
	const page = "a&b <x>"
	if err := o.AddPage(Page{Name: page, Container: "/a&b <x>/50%off+1.html", Embedded: []string{"/x y+z%2.css", "/big #1%.bin"}}); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	t.Cleanup(originSrv.Close)
	var peers []*Peer
	for i := 0; i < 2; i++ {
		p := NewPeer(peerID(i), 0)
		p.SignUp("example.com", originSrv.URL)
		peerSrv := httptest.NewServer(p.Handler())
		t.Cleanup(peerSrv.Close)
		o.RegisterPeer(peerID(i), peerSrv.URL, 10)
		peers = append(peers, p)
	}

	l := &Loader{OriginURL: originSrv.URL}
	w, err := l.FetchWrapper(page)
	if err != nil {
		t.Fatal(err)
	}
	if w.Page != page || w.Container.Path != "/a&b <x>/50%off+1.html" || len(w.Objects) != 2 || len(w.Objects[1].Chunks) != 2 {
		t.Fatalf("wrapper %+v, want the page, its container and a chunked object", w)
	}
	res, err := l.LoadPage(page)
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range objects {
		if !bytes.Equal(res.Body[path], data) {
			t.Errorf("%q rendered %d bytes, want the %d published", path, len(res.Body[path]), len(data))
		}
	}
	total, _ := o.TotalPageBytes(page)
	if served := res.PeerBytes[peerID(0)] + res.PeerBytes[peerID(1)]; len(res.FallbackObjects) != 0 || served != total {
		t.Errorf("peers served %d of %d bytes, fallbacks %q", served, total, res.FallbackObjects)
	}
	var credited int64
	for i, p := range peers {
		if _, err := p.Flush(originSrv.URL); err != nil {
			t.Fatal(err)
		}
		acc := o.AccountingFor(peerID(i))
		if acc.CreditedBytes != res.PeerBytes[peerID(i)] || acc.Rejected != 0 {
			t.Errorf("%s credited %d bytes of the %d it served, %d rejected", peerID(i), acc.CreditedBytes, res.PeerBytes[peerID(i)], acc.Rejected)
		}
		credited += acc.CreditedBytes
	}
	if credited != total {
		t.Errorf("credited %d bytes, page is %d", credited, total)
	}
}

// TestEscapePath checks that an escaped object path parses back to itself
// with its slashes kept, and that a path needing no escape comes back as it
// is without allocating.
func TestEscapePath(t *testing.T) {
	for _, path := range []string{"/p00/o01.bin", "/a&b <x>/50%off+1.html", "/q?x=1#f", "/;,:@$=/é"} {
		u, err := url.Parse("http://h/content" + escapePath(path))
		if err != nil || u.Path != "/content"+path || u.RawQuery != "" || u.Fragment != "" {
			t.Errorf("escapePath(%q) = %q: parses to path %q, query %q (%v)", path, escapePath(path), u.Path, u.RawQuery, err)
		}
	}
	const plain = "/p00/o01.bin"
	if got := escapePath(plain); got != plain {
		t.Errorf("escapePath(%q) = %q", plain, got)
	}
	if n := testing.AllocsPerRun(100, func() { escapePath(plain) }); n != 0 {
		t.Errorf("escapePath of a plain path made %.0f allocations, want 0", n)
	}
}

// TestLabelCopy checks that a label taken from a decoded wrapper does not
// share the wrapper's memory, and that an untraced span costs nothing.
func TestLabelCopy(t *testing.T) {
	tr := hpop.NewTracer(0)
	value := strings.Repeat("peer-", 4)
	sp := tr.Start("nocdn.loader", "fetch_object")
	labelCopy(sp, "peer", value)
	sp.End()
	got := tr.Recent(1)[0].Labels["peer"]
	if got != value || unsafe.StringData(got) == unsafe.StringData(value) {
		t.Errorf("label %q shares the value's memory", got)
	}
	if n := testing.AllocsPerRun(100, func() { labelCopy(nil, "peer", value) }); n != 0 {
		t.Errorf("labelCopy on a nil span made %.0f allocations", n)
	}
}

func TestOriginServesOnlyWrapper(t *testing.T) {
	// The scalability claim: after peer caches warm, the origin serves just
	// the (small) wrapper per page view.
	s := newTestSite(t, 2)
	// Warm both peers' caches (random selection spreads objects, so each
	// peer backfills once; total backfill is bounded by peers x page size).
	for i := 0; i < 6; i++ {
		if _, err := s.loader.LoadPage("home"); err != nil {
			t.Fatal(err)
		}
	}
	total, _ := s.origin.TotalPageBytes("home")
	warmed := s.origin.OriginBytes()
	if warmed == 0 {
		t.Error("cold passes should backfill from origin")
	}
	if warmed > 2*total {
		t.Errorf("backfill %d exceeds peers x page bytes %d", warmed, 2*total)
	}
	// Fully warm: further views cost the origin nothing but the wrapper.
	for i := 0; i < 5; i++ {
		if _, err := s.loader.LoadPage("home"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.origin.OriginBytes(); got != warmed {
		t.Errorf("origin served content on warm passes: %d -> %d", warmed, got)
	}
	perView := s.origin.WrapperBytes() / 11
	if perView >= total/2 {
		t.Errorf("wrapper %d B not small vs page %d B", perView, total)
	}
}

func TestPeerCacheHitPath(t *testing.T) {
	s := newTestSite(t, 1)
	s.loader.LoadPage("home")
	h0, m0, _ := s.peers[0].Stats()
	if m0 == 0 {
		t.Error("no cold misses recorded")
	}
	s.loader.LoadPage("home")
	h1, m1, _ := s.peers[0].Stats()
	if h1 <= h0 {
		t.Error("warm pass produced no cache hits")
	}
	if m1 != m0 {
		t.Errorf("warm pass missed: %d -> %d", m0, m1)
	}
}

func TestUsageSettlementHappyPath(t *testing.T) {
	s := newTestSite(t, 2)
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	uploaded := 0
	for _, p := range s.peers {
		n, err := p.Flush(s.originSrv.URL)
		if err != nil {
			t.Fatal(err)
		}
		uploaded += n
	}
	if uploaded != res.RecordsDelivered {
		t.Errorf("uploaded %d, delivered %d", uploaded, res.RecordsDelivered)
	}
	var credited int64
	for i := range s.peers {
		acc := s.origin.AccountingFor(peerID(i))
		credited += acc.CreditedBytes
		if acc.Suspended {
			t.Errorf("honest peer %s suspended", peerID(i))
		}
		if acc.Rejected != 0 {
			t.Errorf("honest peer %s had %d rejected records", peerID(i), acc.Rejected)
		}
	}
	total, _ := s.origin.TotalPageBytes("home")
	if credited != total {
		t.Errorf("credited %d bytes, page is %d", credited, total)
	}
}

func TestForgedKeyRejected(t *testing.T) {
	s := newTestSite(t, 1)
	forged := UsageRecord{
		Provider: "example.com",
		PeerID:   peerID(0),
		KeyID:    "peer-a-999",
		Page:     "home",
		Bytes:    1 << 30,
		Nonce:    auth.NewNonce(),
		IssuedAt: time.Now(),
	}
	forged.Sign([]byte("made-up-secret"))
	if n := settlePerPeer(s.origin, []UsageRecord{forged}); n != 0 {
		t.Errorf("forged record credited (n=%d)", n)
	}
}

func TestWrongProviderRejected(t *testing.T) {
	s := newTestSite(t, 1)
	rec := UsageRecord{Provider: "evil.com", PeerID: peerID(0)}
	if n := settlePerPeer(s.origin, []UsageRecord{rec}); n != 0 {
		t.Error("cross-provider record credited")
	}
}

func TestCollusionDetection(t *testing.T) {
	// A colluding client signs unlimited legitimate-looking records for its
	// partner peer. The per-key byte cap plus the anomaly detector bound
	// the damage and suspend the peer.
	s := newTestSite(t, 2)
	// Issue a genuine wrapper so the colluder holds a real key.
	w, err := s.origin.AssignWrapper("home", "c")
	if err != nil {
		t.Fatal(err)
	}
	// The colluding partner is a peer the wrapper assigned an image to.
	colluder := w.Objects[0].PeerID
	key := w.Keys[colluder]
	secret, _ := hex.DecodeString(key.Secret)
	// Forge many records claiming that image each time (within the per-key
	// cap; each has a fresh nonce and a VALID signature — pure collusion).
	var records []UsageRecord
	for i := 0; i < 50; i++ {
		rec := UsageRecord{
			Provider: "example.com",
			PeerID:   colluder,
			KeyID:    key.KeyID,
			Page:     "home",
			Bytes:    10000,
			Objects:  1,
			Nonce:    auth.NewNonce(),
			IssuedAt: time.Now(),
		}
		rec.Sign(secret)
		records = append(records, rec)
	}
	settlePerPeer(s.origin, records)
	acc := s.origin.AccountingFor(colluder)
	if !acc.Suspended {
		t.Errorf("colluding peer not suspended: %+v", acc)
	}
	// And suspended peers drop out of future wrappers.
	w2, err := s.origin.AssignWrapper("home", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range append([]ObjectRef{w2.Container}, w2.Objects...) {
		if ref.PeerID == colluder {
			t.Error("suspended peer still assigned")
		}
	}
}

func TestChunkedMultiPeerFetch(t *testing.T) {
	o := NewOrigin("big.com", WithRNG(sim.NewRNG(3)), WithChunking(3, 1000))
	big := make([]byte, 100000)
	for i := range big {
		big[i] = byte(i % 251)
	}
	o.AddObject("/big.bin", big)
	o.AddPage(Page{Name: "dl", Container: "/big.bin"})
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	for i := 0; i < 3; i++ {
		p := NewPeer(peerID(i), 0)
		p.SignUp("big.com", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		o.RegisterPeer(peerID(i), srv.URL, 10)
	}
	w, err := o.AssignWrapper("dl", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Container.Chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(w.Container.Chunks))
	}
	loader := &Loader{OriginURL: originSrv.URL}
	res, err := loader.LoadPage("dl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body["/big.bin"], big) {
		t.Fatal("chunked reassembly corrupted data")
	}
	// Load was spread: more than one peer served bytes.
	if len(res.PeerBytes) < 2 {
		t.Errorf("chunks served by %d peers, want >= 2", len(res.PeerBytes))
	}
}

func TestSelectionPolicyString(t *testing.T) {
	if SelectRandom.String() != "random" || SelectProximity.String() != "proximity" ||
		SelectLoadAware.String() != "loadAware" {
		t.Error("policy strings wrong")
	}
	if !strings.Contains(SelectionPolicy(9).String(), "9") {
		t.Error("unknown policy string")
	}
}

func TestUsageRecordCanonicalSigning(t *testing.T) {
	secret := []byte("k")
	rec := UsageRecord{
		Provider: "p", PeerID: "x", KeyID: "k1", Page: "home",
		Bytes: 100, Objects: 2, Nonce: "n", IssuedAt: time.Unix(1000, 0),
	}
	rec.Sign(secret)
	if err := rec.VerifySignature(secret); err != nil {
		t.Fatal(err)
	}
	// Any field change breaks the signature.
	mutations := []func(*UsageRecord){
		func(r *UsageRecord) { r.Bytes = 200 },
		func(r *UsageRecord) { r.Page = "other" },
		func(r *UsageRecord) { r.Nonce = "m" },
		func(r *UsageRecord) { r.PeerID = "y" },
		func(r *UsageRecord) { r.KeyID = "k2" },
	}
	for i, mutate := range mutations {
		r2 := rec
		mutate(&r2)
		if err := r2.VerifySignature(secret); err == nil {
			t.Errorf("mutation %d left signature valid", i)
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h          string
		size       int
		start, end int
		ok         bool
	}{
		{"bytes=0-9", 100, 0, 10, true},
		{"bytes=90-", 100, 90, 100, true},
		{"bytes=50-200", 100, 50, 100, true},
		{"bytes=200-300", 100, 0, 0, false},
		{"garbage", 100, 0, 0, false},
		{"bytes=5-2", 100, 0, 0, false},
	}
	for _, c := range cases {
		s, e, ok := parseRange(c.h, c.size)
		if ok != c.ok || (ok && (s != c.start || e != c.end)) {
			t.Errorf("parseRange(%q) = %d,%d,%v", c.h, s, e, ok)
		}
	}
}

func TestByteLRUEviction(t *testing.T) {
	c := newByteLRU(100)
	put := func(key string, n int) []lruEntry {
		data := bytes.Repeat([]byte(key[:1]), n)
		return c.put(key, data, sha256.Sum256(data), &entryMeta{etag: key})
	}
	put("a", 40)
	put("b", 40)
	c.get("a") // refresh a
	// Evicts b (LRU), handing back the sum and metadata it was stored with:
	// a spill writes those, it does not hash the entry again.
	evicted := put("c", 40)
	if len(evicted) != 1 || evicted[0].key != "b" || evicted[0].sum != sha256.Sum256(evicted[0].data) || evicted[0].meta.etag != "b" {
		t.Errorf("evicted = %v, want b with the SHA-256 of its bytes and its metadata", evicted)
	}
	if _, _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, m, ok := c.get("a"); !ok || m.etag != "a" {
		t.Error("recently used a evicted, or returned without its metadata")
	}
	// Oversized object is not cached.
	put("huge", 1000)
	if _, _, ok := c.get("huge"); ok {
		t.Error("oversized object cached")
	}
	// Replacing a key adjusts usage, and the sum follows the bytes.
	put("a", 10)
	put("d", 50)
	if _, _, ok := c.get("a"); !ok {
		t.Error("a lost after shrink-replace")
	}
	for _, e := range put("e", 90) {
		if e.sum != sha256.Sum256(e.data) {
			t.Errorf("evicted %s carries a sum that is not its bytes'", e.key)
		}
	}
}

func TestDeadPeerFallsBackToOrigin(t *testing.T) {
	s := newTestSite(t, 2)
	// Kill both peers' HTTP servers: every object fetch fails at the peer.
	for _, srv := range s.peerSrvs {
		srv.Close()
	}
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatalf("page failed despite origin fallback: %v", err)
	}
	if len(res.Body) != 5 {
		t.Fatalf("assembled %d objects", len(res.Body))
	}
	if len(res.FallbackObjects) != 5 {
		t.Errorf("fallbacks = %v, want all 5 objects", res.FallbackObjects)
	}
	// Content is still correct.
	if !bytes.Equal(res.Body["/img/c.png"], bytes.Repeat([]byte("c"), 10000)) {
		t.Error("fallback content wrong")
	}
	// Nobody gets paid for bytes the origin served.
	for peer, n := range res.PeerBytes {
		if n != 0 {
			t.Errorf("dead peer %s credited %d bytes", peer, n)
		}
	}
}

func TestFlushRetryAfterOriginOutage(t *testing.T) {
	s := newTestSite(t, 1)
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	pending := s.peers[0].PendingRecords()
	if pending == 0 {
		t.Fatal("no records to flush")
	}
	now := time.Now()
	s.peers[0].SetClock(func() time.Time { return now })
	// Origin goes down: flush fails and the batch is retained for retry.
	s.originSrv.Close()
	if _, err := s.peers[0].Flush(s.originSrv.URL); err == nil {
		t.Fatal("flush to dead origin succeeded")
	}
	if got := s.peers[0].PendingRecords(); got != pending {
		t.Errorf("records after failed flush = %d, want %d (retained)", got, pending)
	}
	// Origin returns (new server, same accounting state); step past the
	// failure-armed backoff gate before retrying.
	now = now.Add(time.Minute)
	revived := httptest.NewServer(s.origin.Handler())
	defer revived.Close()
	s.peers[0].SignUp("example.com", revived.URL)
	n, err := s.peers[0].Flush(revived.URL)
	if err != nil || n != pending {
		t.Fatalf("retry flush = %d, %v", n, err)
	}
	if s.peers[0].PendingRecords() != 0 {
		t.Error("records linger after successful retry")
	}
	acc := s.origin.AccountingFor(peerID(0))
	if acc.CreditedBytes == 0 {
		t.Error("retried records not credited")
	}
}

// TestFlushKeepsRecordsOnNotFound: a 404 (mis-routed origin URL, a proxy)
// is not a settlement decision. The batch must requeue and arm the backoff
// gate like a 5xx, then settle in full once the origin answers.
func TestFlushKeepsRecordsOnNotFound(t *testing.T) {
	s := newTestSite(t, 1)
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	pending := s.peers[0].PendingRecords()
	if pending == 0 {
		t.Fatal("no records to flush")
	}
	now := time.Now()
	s.peers[0].SetClock(func() time.Time { return now })
	var posts atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			http.NotFound(w, r)
			return
		}
		s.origin.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	s.peers[0].SignUp("example.com", front.URL)

	if n, err := s.peers[0].Flush(front.URL); err == nil || n != 0 {
		t.Fatalf("flush answered 404 = %d, %v; want 0 and an error", n, err)
	}
	if got := s.peers[0].PendingRecords(); got != pending {
		t.Fatalf("records after 404 = %d, want %d (retained)", got, pending)
	}
	if _, err := s.peers[0].Flush(front.URL); !errors.Is(err, ErrFlushDeferred) {
		t.Fatalf("flush right after a 404 = %v, want ErrFlushDeferred", err)
	}
	now = now.Add(time.Minute)
	if n, err := s.peers[0].Flush(front.URL); err != nil || n != pending {
		t.Fatalf("retry flush = %d, %v; want %d, nil", n, err, pending)
	}
	if s.peers[0].PendingRecords() != 0 {
		t.Error("records linger after the settled retry")
	}
	if got, want := s.origin.AccountingFor(peerID(0)).CreditedBytes, res.PeerBytes[peerID(0)]; got != want || want == 0 {
		t.Errorf("credited %d bytes after the retry, want the %d served", got, want)
	}
}

// TestFlushKeepsRecordsOnOversizeBatch: a batch past /usage/batch's 8 MiB
// cap used to be cut at the cap, fail to parse and answer 400 — which Flush
// takes as a settlement decision, discarding every paid-for record in it.
// The origin now refuses it with 413, which decides nothing: the batch
// requeues and the backoff gate arms.
func TestFlushKeepsRecordsOnOversizeBatch(t *testing.T) {
	s := newTestSite(t, 1)
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	p := s.peers[0]
	// Flush splits a long queue into batches under the cap, so only a
	// record no batch can carry still meets the 413: one with a 9 MiB page
	// name, at the head of the queue. (None can arrive through /record,
	// whose 1 MiB cap keeps every leaf under the batch cap.)
	p.recordsMu.Lock()
	huge := UsageRecord{Provider: "example.com", PeerID: p.ID,
		Page: strings.Repeat("x", 9<<20), Bytes: 1, Nonce: auth.NewNonce()}
	p.lanes["example.com"].records = append([]string{string(huge.LeafBytes())}, p.lanes["example.com"].records...)
	p.recordsMu.Unlock()
	pending := p.PendingRecords()
	now := time.Now()
	p.SetClock(func() time.Time { return now })

	n, err := p.Flush(s.originSrv.URL)
	if err == nil || n != 0 || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversize flush = %d, %v; want 0 and a 413", n, err)
	}
	if got := p.PendingRecords(); got != pending {
		t.Fatalf("records after 413 = %d, want %d (retained)", got, pending)
	}
	if _, err := p.Flush(s.originSrv.URL); !errors.Is(err, ErrFlushDeferred) {
		t.Fatalf("flush right after a 413 = %v, want ErrFlushDeferred", err)
	}
	if got := s.origin.AccountingFor(p.ID).CreditedBytes; got != 0 {
		t.Errorf("credited %d bytes from a refused batch", got)
	}
}

// TestOversizeUploadIs413: every capped upload endpoint refuses a body past
// its cap with 413 — on the Content-Length alone, and on reading past the
// cap when the upload is chunked — and never cuts it and parses the stump.
func TestOversizeUploadIs413(t *testing.T) {
	s := newTestSite(t, 1)
	for _, ep := range []struct {
		url string
		cap int
	}{
		{s.originSrv.URL + "/usage/batch", 8 << 20},
		{s.originSrv.URL + "/telemetry/batch", 8 << 20},
		{s.peerSrvs[0].URL + "/record", 1 << 20},
		{s.originSrv.URL + "/gossip", 1 << 20},
	} {
		// A JSON string one byte past the cap: well-formed, were it read whole.
		body := []byte(`"` + strings.Repeat("x", ep.cap-1) + `"`)
		for _, chunked := range []bool{false, true} {
			var rdr io.Reader = bytes.NewReader(body)
			if chunked {
				rdr = struct{ io.Reader }{rdr} // hides the length from net/http
			}
			resp, err := http.Post(ep.url, "application/json", rdr)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (chunked=%v): %d bytes answered %d, want 413", ep.url, chunked, len(body), resp.StatusCode)
			}
		}
		// At the cap the body is read whole and judged on its content.
		resp, err := http.Post(ep.url, "application/json", bytes.NewReader(body[1:]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d malformed bytes answered %d, want 400", ep.url, len(body)-1, resp.StatusCode)
		}
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	s := newTestSite(t, 1)
	n, err := s.peers[0].Flush(s.originSrv.URL)
	if err != nil || n != 0 {
		t.Errorf("empty flush = %d, %v", n, err)
	}
}
