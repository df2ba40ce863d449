package integration

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/adversary"
	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// tracedProcess bundles one simulated process: its own metrics registry, its
// own tracer, and a debug listener serving /debug/trace — exactly what each
// real daemon exposes. Tests read traces back over HTTP only, like an
// operator (or hpopbench trace-join) would.
type tracedProcess struct {
	metrics *hpop.Metrics
	tracer  *hpop.Tracer
	debug   *httptest.Server
}

func newTracedProcess(t *testing.T) *tracedProcess {
	t.Helper()
	p := &tracedProcess{metrics: hpop.NewMetrics(), tracer: hpop.NewTracer(0)}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/trace", hpop.TraceHandler(p.tracer))
	p.debug = httptest.NewServer(mux)
	t.Cleanup(p.debug.Close)
	return p
}

// traceSpans fetches the process's spans for one trace via its HTTP debug
// endpoint.
func (p *tracedProcess) traceSpans(t *testing.T, traceID string) []hpop.SpanRecord {
	t.Helper()
	resp, err := http.Get(p.debug.URL + "/debug/trace?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status = %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		TraceID string            `json:"traceId"`
		Spans   []hpop.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/debug/trace body not JSON: %v", err)
	}
	if tr.TraceID != traceID {
		t.Fatalf("/debug/trace echoed id %q, want %q", tr.TraceID, traceID)
	}
	return tr.Spans
}

// buildSite registers the standard test page on an origin: an index container
// plus four embedded images, enough objects that both peers get assignments.
func buildSite(t *testing.T, origin *nocdn.Origin) {
	t.Helper()
	origin.AddObject("/index.html", bytes.Repeat([]byte("<html>"), 500))
	embedded := make([]string, 0, 4)
	for _, suffix := range []string{"a", "b", "c", "d"} {
		path := "/img/" + suffix + ".png"
		origin.AddObject(path, bytes.Repeat([]byte(suffix), 10000))
		embedded = append(embedded, path)
	}
	if err := origin.AddPage(nocdn.Page{
		Name: "home", Container: "/index.html", Embedded: embedded,
	}); err != nil {
		t.Fatal(err)
	}
}

// loadPageRootTraceID finds the load_page root span in the loader's tracer
// and returns its distributed trace ID.
func loadPageRootTraceID(t *testing.T, tracer *hpop.Tracer) string {
	t.Helper()
	for _, rec := range tracer.Recent(0) {
		if rec.ParentID == 0 && rec.Service == "nocdn.loader" && rec.Name == "load_page" {
			if rec.TraceID == "" {
				t.Fatal("load_page root has no trace ID")
			}
			return rec.TraceID
		}
	}
	t.Fatal("no load_page root span recorded")
	return ""
}

// TestCrossProcessTraceStitching is the tentpole acceptance test: one
// chaos-seeded (seed 7) page view against four separate processes — loader,
// two peers, origin — each with its own tracer, must yield ONE trace ID whose
// spans, gathered from every process's /debug/trace?id= endpoint, stitch into
// a single tree rooted at the loader's load_page span and reaching the
// origin's settlement path.
func TestCrossProcessTraceStitching(t *testing.T) {
	loaderP := newTracedProcess(t)
	peerAP := newTracedProcess(t)
	peerBP := newTracedProcess(t)
	originP := newTracedProcess(t)

	origin := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	origin.SetMetrics(originP.metrics)
	origin.SetTracer(originP.tracer)
	buildSite(t, origin)
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	peerA := nocdn.NewPeer("peer-a", 0)
	peerA.SignUp("example.com", originSrv.URL)
	peerA.SetMetrics(peerAP.metrics)
	peerA.SetTracer(peerAP.tracer)
	peerASrv := httptest.NewServer(peerA.Handler())
	defer peerASrv.Close()

	peerB := nocdn.NewPeer("peer-b", 0)
	peerB.SignUp("example.com", originSrv.URL)
	peerB.SetMetrics(peerBP.metrics)
	peerB.SetTracer(peerBP.tracer)
	peerBSrv := httptest.NewServer(peerB.Handler())
	defer peerBSrv.Close()

	origin.RegisterPeer("peer-a", peerASrv.URL, 50)
	origin.RegisterPeer("peer-b", peerBSrv.URL, 50)

	// Seed-7 chaos on the loader's client: a deterministic 503 burst on the
	// wrapper plus probabilistic 503s on the proxy path, all absorbed by
	// retries. Traceparent propagation must survive the retry path too.
	sched, err := faults.ParseSchedule(
		"status 503 p=1 match=/wrapper from=0 to=2\nstatus 503 p=0.4 match=/proxy/ from=0 to=6")
	if err != nil {
		t.Fatal(err)
	}
	sched.Seed = 7
	inj := faults.NewInjector(sched)
	inj.Metrics = loaderP.metrics

	loader := &nocdn.Loader{
		OriginURL:   originSrv.URL,
		Concurrency: 1,
		Retry:       faults.Policy{MaxAttempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1},
		HTTPClient:  &http.Client{Transport: inj.Transport(nil)},
		Metrics:     loaderP.metrics,
		Tracer:      loaderP.tracer,
	}
	res, err := loader.LoadPage("home")
	if err != nil {
		t.Fatalf("chaos page load failed outright: %v", err)
	}
	if res.RecordsDelivered == 0 {
		t.Fatal("no usage records delivered, settlement leg cannot be traced")
	}

	// Both peers upload their records; the settle_record spans the origin
	// opens continue the page view's trace via the signed traceparent.
	for name, p := range map[string]*nocdn.Peer{"peer-a": peerA, "peer-b": peerB} {
		if _, err := p.Flush(originSrv.URL); err != nil {
			t.Fatalf("%s flush: %v", name, err)
		}
	}

	traceID := loadPageRootTraceID(t, loaderP.tracer)

	// Gather the trace from every process over HTTP, the way trace-join does.
	// The loader is queried twice: duplicates must collapse in the stitch.
	loaderSpans := loaderP.traceSpans(t, traceID)
	peerASpans := peerAP.traceSpans(t, traceID)
	peerBSpans := peerBP.traceSpans(t, traceID)
	originSpans := originP.traceSpans(t, traceID)
	for name, spans := range map[string][]hpop.SpanRecord{
		"loader": loaderSpans, "peer-a": peerASpans, "peer-b": peerBSpans, "origin": originSpans,
	} {
		if len(spans) == 0 {
			t.Fatalf("process %s recorded no spans for trace %s", name, traceID)
		}
		for _, sp := range spans {
			if sp.TraceID != traceID {
				t.Fatalf("process %s returned span %d with trace %q", name, sp.ID, sp.TraceID)
			}
		}
	}
	for name, spans := range map[string][]hpop.SpanRecord{"peer-a": peerASpans, "peer-b": peerBSpans} {
		if !hasSpanNamed(spans, "proxy") {
			t.Errorf("%s has no proxy span in the trace", name)
		}
	}
	if !hasSpanNamed(originSpans, "settle_record") {
		t.Error("origin has no settle_record span in the trace — settlement leg broken")
	}

	var all []hpop.SpanRecord
	all = append(all, loaderSpans...)
	all = append(all, peerASpans...)
	all = append(all, peerBSpans...)
	all = append(all, originSpans...)
	all = append(all, loaderSpans...) // same daemon queried twice
	unique := len(loaderSpans) + len(peerASpans) + len(peerBSpans) + len(originSpans)

	roots := hpop.StitchTrace(all)
	if len(roots) != 1 {
		t.Fatalf("stitched %d roots, want exactly 1 (spans: %d)", len(roots), len(all))
	}
	tree := roots[0]
	if tree.Service != "nocdn.loader" || tree.Name != "load_page" {
		t.Fatalf("stitched root is %s/%s, want nocdn.loader/load_page", tree.Service, tree.Name)
	}
	if got := countTreeNodes(tree); got != unique {
		t.Errorf("stitched tree holds %d nodes, want %d (all spans parented, duplicates collapsed)", got, unique)
	}
	// The settlement spans sit under the deliver_record leg of the tree: the
	// origin learned the page view's trace only through the signed record.
	settleParents := map[string]int{}
	walkTree(tree, func(n *hpop.SpanNode, parent *hpop.SpanNode) {
		if n.Name == "settle_record" && parent != nil {
			settleParents[parent.Name]++
		}
	})
	if settleParents["deliver_record"] == 0 {
		t.Errorf("no settle_record span parented under deliver_record (parents: %v)", settleParents)
	}
}

func hasSpanNamed(spans []hpop.SpanRecord, name string) bool {
	for _, sp := range spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

func countTreeNodes(n *hpop.SpanNode) int {
	total := 1
	for _, c := range n.Children {
		total += countTreeNodes(c)
	}
	return total
}

func walkTree(n *hpop.SpanNode, visit func(node, parent *hpop.SpanNode)) {
	var rec func(node, parent *hpop.SpanNode)
	rec = func(node, parent *hpop.SpanNode) {
		visit(node, parent)
		for _, c := range node.Children {
			rec(c, node)
		}
	}
	rec(n, nil)
}

// TestAuditFlagsInflatingPeer is the audit pipeline acceptance test: after
// several page views by one visitor, whose map names all three peers, a peer
// that inflates its pending records before upload shows in /debug/audit
// with every record rejected and no credit, and leads it. Nobody is
// flagged: a record that fails its signature earns nothing.
func TestAuditFlagsInflatingPeer(t *testing.T) {
	origin := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	origin.SetMetrics(hpop.NewMetrics())
	origin.SetTracer(hpop.NewTracer(0))
	buildSite(t, origin)
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	peers := map[string]*nocdn.Peer{}
	for _, id := range []string{"honest-a", "honest-b", "cheat"} {
		p := nocdn.NewPeer(id, 0)
		p.SignUp("example.com", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		origin.RegisterPeer(id, srv.URL, 50)
		peers[id] = p
	}
	// The cheat's uploads leave through an adversary.Records: byte claims
	// doubled after signing, the batch re-committed.
	peers["cheat"].SetHTTPClient(&http.Client{Transport: &adversary.Records{Inflate: true}})

	loader := &nocdn.Loader{OriginURL: originSrv.URL, ClientID: "client-a", Tracer: hpop.NewTracer(0)}
	for view := 0; view < 6; view++ {
		if _, err := loader.LoadPage("home"); err != nil {
			t.Fatalf("view %d: %v", view+1, err)
		}
	}
	for id, p := range peers {
		if p.PendingRecords() == 0 {
			t.Fatalf("the visitor's map does not name %s", id)
		}
		if _, err := p.Flush(originSrv.URL); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}

	// Read the verdict the way an operator would: /debug/audit on the origin.
	resp, err := http.Get(originSrv.URL + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/audit status = %d: %s", resp.StatusCode, body)
	}
	var snap nocdn.AuditSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/audit body not JSON: %v\n%s", err, body)
	}
	if len(snap.Peers) != 3 {
		t.Fatalf("audit snapshot covers %d peers, want 3:\n%s", len(snap.Peers), body)
	}
	byID := map[string]nocdn.PeerAudit{}
	for _, p := range snap.Peers {
		byID[p.PeerID] = p
	}
	cheat := byID["cheat"]
	if cheat.Rejects == 0 || cheat.Rejects != cheat.Records {
		t.Errorf("inflated records not all rejected:\n%s", body)
	}
	if acct := origin.AccountingFor("cheat"); acct.CreditedBytes != 0 {
		t.Errorf("inflating peer credited %d bytes", acct.CreditedBytes)
	}
	for _, p := range snap.Peers {
		if p.Flagged {
			t.Errorf("peer %s flagged:\n%s", p.PeerID, body)
		}
	}
	// Peers with the most rejects lead the snapshot: the cheater is first.
	if snap.Peers[0].PeerID != "cheat" {
		t.Errorf("audit snapshot leads with %q, want cheat", snap.Peers[0].PeerID)
	}
}

// flipTraceparent corrupts the traceparent header of every outgoing request
// by flipping one bit of a trace-id hex character (0x40 turns any lowercase
// hex char into a non-hex byte), simulating wire corruption.
type flipTraceparent struct {
	base    http.RoundTripper
	flipped atomic.Int64
}

func (f *flipTraceparent) RoundTrip(req *http.Request) (*http.Response, error) {
	if tp := req.Header.Get(hpop.TraceparentHeader); tp != "" {
		req = req.Clone(req.Context())
		b := []byte(tp)
		b[5] ^= 0x40
		req.Header.Set(hpop.TraceparentHeader, string(b))
		f.flipped.Add(1)
	}
	base := f.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// TestBitFlippedTraceparentDegradesToFreshRoot asserts the malformed-header
// contract end to end: when every traceparent the loader sends is corrupted
// in flight, the receiving peer must not join the loader's trace (and must
// not crash) — it starts fresh roots with new, valid trace IDs.
func TestBitFlippedTraceparentDegradesToFreshRoot(t *testing.T) {
	loaderP := newTracedProcess(t)
	peerP := newTracedProcess(t)

	origin := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	buildSite(t, origin)
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	peer := nocdn.NewPeer("peer-a", 0)
	peer.SignUp("example.com", originSrv.URL)
	peer.SetTracer(peerP.tracer)
	peerSrv := httptest.NewServer(peer.Handler())
	defer peerSrv.Close()
	origin.RegisterPeer("peer-a", peerSrv.URL, 50)

	flipper := &flipTraceparent{}
	loader := &nocdn.Loader{
		OriginURL:  originSrv.URL,
		HTTPClient: &http.Client{Transport: flipper},
		Tracer:     loaderP.tracer,
	}
	if _, err := loader.LoadPage("home"); err != nil {
		t.Fatalf("page load with corrupted headers failed: %v", err)
	}
	if flipper.flipped.Load() == 0 {
		t.Fatal("no traceparent header was ever corrupted — propagation missing?")
	}

	loaderTrace := loadPageRootTraceID(t, loaderP.tracer)
	// The corrupted header must never join the loader's trace...
	if spans := peerP.traceSpans(t, loaderTrace); len(spans) != 0 {
		t.Fatalf("peer joined the loader's trace through a corrupted header: %+v", spans)
	}
	// ...and the peer degrades to fresh, valid roots rather than dropping
	// its own spans.
	proxies := 0
	for _, rec := range peerP.tracer.Recent(0) {
		if rec.Name != "proxy" {
			continue
		}
		proxies++
		if rec.ParentID != 0 {
			t.Errorf("fresh-root proxy span has parent %d: %+v", rec.ParentID, rec)
		}
		if _, err := hpop.ParseTraceID(rec.TraceID); err != nil {
			t.Errorf("fresh root trace ID %q invalid: %v", rec.TraceID, err)
		}
		if rec.TraceID == loaderTrace {
			t.Errorf("fresh root reused the loader's trace ID %s", rec.TraceID)
		}
	}
	if proxies == 0 {
		t.Error("peer recorded no proxy spans at all")
	}
}

// TestTraceJoinOutputShape is a light check that the /debug/trace JSON
// matches what hpopbench trace-join consumes: spans with numeric IDs and a
// 32-hex trace ID, usable directly by StitchTrace.
func TestTraceJoinOutputShape(t *testing.T) {
	p := newTracedProcess(t)
	root := p.tracer.Start("svc", "root")
	child := root.Child("leaf")
	child.End()
	root.End()
	id := loadTraceIDOf(t, p.tracer, "root")
	spans := p.traceSpans(t, id)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	roots := hpop.StitchTrace(spans)
	if len(roots) != 1 || roots[0].Name != "root" || len(roots[0].Children) != 1 {
		t.Fatalf("stitch of HTTP-fetched spans = %+v", roots)
	}
	// Unknown trace IDs answer an empty span list, not an error.
	if spans := p.traceSpans(t, strings.Repeat("ab", 16)); len(spans) != 0 {
		t.Errorf("unknown trace returned %d spans", len(spans))
	}
	// Malformed IDs are a 400, not a panic.
	resp, err := http.Get(p.debug.URL + "/debug/trace?id=zz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id status = %d, want 400", resp.StatusCode)
	}
}

func loadTraceIDOf(t *testing.T, tracer *hpop.Tracer, name string) string {
	t.Helper()
	for _, rec := range tracer.Recent(0) {
		if rec.Name == name {
			return rec.TraceID
		}
	}
	t.Fatalf("no span named %q", name)
	return ""
}
