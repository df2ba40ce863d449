package hpop

import (
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

// testTracer returns a tracer with deterministic IDs and a fixed clock.
func testTracer(seed uint64) *Tracer {
	t := NewTracer(0)
	rng := rand.New(rand.NewSource(int64(seed)))
	t.id64 = rng.Uint64
	t.nextID.Store(t.id64())
	base := time.Unix(1700000000, 0).UTC()
	var tick time.Duration
	t.SetClock(func() time.Time {
		tick += time.Millisecond
		return base.Add(tick)
	})
	return t
}

// TestTraceparentRoundTripProperty is the round-trip property test: for many
// random valid contexts, Traceparent() must parse back to the identical
// context.
func TestTraceparentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		var id TraceID
		for id.IsZero() {
			rng.Read(id[:])
		}
		tc := TraceContext{
			TraceID: id,
			SpanID:  rng.Uint64() | 1, // nonzero
			Sampled: rng.Intn(2) == 0,
		}
		header := tc.Traceparent()
		if len(header) != 55 {
			t.Fatalf("traceparent %q: len = %d, want 55", header, len(header))
		}
		got, err := ParseTraceparent(header)
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", header, err)
		}
		if got != tc {
			t.Fatalf("round trip: got %+v, want %+v", got, tc)
		}
	}
}

// TestParseTraceparentRejectsMalformed pins the strict-parse behaviour: every
// corruption must fail parsing (and so degrade the receiver to a fresh root).
func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	cases := map[string]string{
		"empty":          "",
		"truncated":      valid[:54],
		"extended":       valid + "0",
		"bad version":    "01" + valid[2:],
		"ff version":     "ff" + valid[2:],
		"zero trace id":  "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero parent id": "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"uppercase hex":  strings.ToUpper(valid),
		"non-hex trace":  "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",
		"non-hex flags":  valid[:53] + "zz",
		"wrong dashes":   strings.Replace(valid, "-", "_", 3),
		"spaces":         strings.Replace(valid, "-", " ", 3),
	}
	for name, in := range cases {
		if tc, err := ParseTraceparent(in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) = %+v, want error", name, in, tc)
		}
	}
}

// TestParseTraceparentAbsentAllocatesNothing: most settled records and most
// requests carry no traceparent, so the absent header is answered without
// formatting an error.
func TestParseTraceparentAbsentAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseTraceparent(""); err == nil {
			t.Fatal("empty traceparent parsed")
		}
	})
	if allocs != 0 {
		t.Errorf("ParseTraceparent(\"\") allocates %v times, want 0", allocs)
	}
}

// TestExtractTraceparentAbsentAllocatesNothing: every request a daemon
// serves is asked for its traceparent, and most carry none. The header is
// looked up under its canonical key, so the lookup builds no key string.
func TestExtractTraceparentAbsentAllocatesNothing(t *testing.T) {
	h := http.Header{"Accept": {"*/*"}, "User-Agent": {"Go-http-client/1.1"}}
	allocs := testing.AllocsPerRun(100, func() {
		if ExtractTraceparent(h).Valid() {
			t.Fatal("absent traceparent extracted")
		}
	})
	if allocs != 0 {
		t.Errorf("ExtractTraceparent of a header without one allocates %v times, want 0", allocs)
	}
}

// TestInjectExtractTraceparent exercises the HTTP header half: inject from a
// live span, extract on the "other side", and check the zero value comes back
// for absent or corrupted headers.
func TestInjectExtractTraceparent(t *testing.T) {
	tr := testTracer(1)
	sp := tr.Start("svc", "op")
	h := http.Header{}
	InjectTraceparent(h, sp)
	if h["Traceparent"] == nil {
		t.Fatalf("no traceparent injected from live span under its canonical key: %v", h)
	}
	tc := ExtractTraceparent(h)
	if !tc.Valid() || !tc.Sampled {
		t.Fatalf("extracted context invalid: %+v", tc)
	}
	if want := sp.Context(); tc != want {
		t.Fatalf("extracted %+v, want %+v", tc, want)
	}
	sp.End()

	// Nil span injects nothing.
	h2 := http.Header{}
	InjectTraceparent(h2, nil)
	if got := h2.Get(TraceparentHeader); got != "" {
		t.Errorf("nil span injected %q", got)
	}
	// Absent header extracts the zero context.
	if tc := ExtractTraceparent(http.Header{}); tc.Valid() {
		t.Errorf("absent header extracted valid context %+v", tc)
	}
	// A bit-flipped header extracts the zero context.
	h.Set(TraceparentHeader, corruptHeader(h.Get(TraceparentHeader)))
	if tc := ExtractTraceparent(h); tc.Valid() {
		t.Errorf("corrupted header extracted valid context %+v", tc)
	}
}

// corruptHeader flips one hex character of the trace-id field to a non-hex
// byte, simulating wire corruption.
func corruptHeader(s string) string {
	b := []byte(s)
	b[5] = 'z'
	return string(b)
}

// TestStartRemoteSemantics pins the three StartRemote behaviours: valid
// sampled parent continues the trace, valid unsampled parent drops the span,
// invalid parent degrades to a fresh root.
func TestStartRemoteSemantics(t *testing.T) {
	up := testTracer(2)
	down := testTracer(3)

	root := up.Start("loader", "load_page")
	parent := root.Context()
	cont := down.StartRemote("peer", "proxy", parent)
	if cont == nil {
		t.Fatal("StartRemote with valid parent returned nil")
	}
	if got := cont.Context().TraceID; got != parent.TraceID {
		t.Errorf("continued span trace = %s, want %s", got, parent.TraceID)
	}
	cont.End()
	recs := down.TraceSpans(parent.TraceID)
	if len(recs) != 1 {
		t.Fatalf("TraceSpans = %d records, want 1", len(recs))
	}
	if recs[0].ParentID != parent.SpanID {
		t.Errorf("continued span parent = %d, want %d", recs[0].ParentID, parent.SpanID)
	}
	root.End()

	// Unsampled parent: honor the upstream drop.
	unsampled := parent
	unsampled.Sampled = false
	if sp := down.StartRemote("peer", "proxy", unsampled); sp != nil {
		t.Error("StartRemote with unsampled parent returned a live span")
	}

	// Invalid parent: fresh root with a new nonzero trace ID.
	fresh := down.StartRemote("peer", "proxy", TraceContext{})
	if fresh == nil {
		t.Fatal("StartRemote with zero parent returned nil")
	}
	fctx := fresh.Context()
	if !fctx.Valid() {
		t.Fatalf("fresh root context invalid: %+v", fctx)
	}
	if fctx.TraceID == parent.TraceID {
		t.Error("fresh root reused the upstream trace ID")
	}
	fresh.End()

	// Nil tracer absorbs everything.
	var nilT *Tracer
	if sp := nilT.StartRemote("x", "y", parent); sp != nil {
		t.Error("nil tracer StartRemote returned a span")
	}
}

// TestStitchTraceCrossProcess builds one logical trace across three tracers
// (simulated processes) and checks StitchTrace reassembles a single tree with
// correct parentage, deduping a daemon queried twice.
func TestStitchTraceCrossProcess(t *testing.T) {
	loader := testTracer(10)
	peer := testTracer(11)
	origin := testTracer(12)

	root := loader.Start("nocdn.loader", "load_page")
	fetch := root.Child("fetch_object")
	proxy := peer.StartRemote("nocdn.peer", "proxy", fetch.Context())
	settle := origin.StartRemote("nocdn.origin", "settle_record", fetch.Context())
	settle.End()
	proxy.End()
	fetch.End()
	root.End()

	id := root.Context().TraceID
	var all []SpanRecord
	all = append(all, loader.TraceSpans(id)...)
	all = append(all, peer.TraceSpans(id)...)
	all = append(all, origin.TraceSpans(id)...)
	all = append(all, peer.TraceSpans(id)...) // the same daemon queried twice
	if len(all) != 5 {
		t.Fatalf("collected %d spans, want 5 (incl. duplicate)", len(all))
	}

	roots := StitchTrace(all)
	if len(roots) != 1 {
		t.Fatalf("stitched %d roots, want 1", len(roots))
	}
	tree := roots[0]
	if tree.Name != "load_page" || len(tree.Children) != 1 {
		t.Fatalf("bad root: %s with %d children", tree.Name, len(tree.Children))
	}
	fo := tree.Children[0]
	if fo.Name != "fetch_object" || len(fo.Children) != 2 {
		t.Fatalf("bad fetch_object node: %s with %d children", fo.Name, len(fo.Children))
	}
	services := map[string]bool{}
	for _, c := range fo.Children {
		services[c.Service] = true
	}
	if !services["nocdn.peer"] || !services["nocdn.origin"] {
		t.Errorf("fetch_object children from %v, want peer and origin", services)
	}

	// A subset missing the root still stitches: the orphan becomes a root.
	orphans := StitchTrace(peer.TraceSpans(id))
	if len(orphans) != 1 || orphans[0].Name != "proxy" {
		t.Errorf("orphan stitch = %+v, want single proxy root", orphans)
	}
}

// TestTracerSpanIDBaseRandomized checks that two tracers mint from different
// span-ID bases, so cross-process stitching cannot collide IDs.
func TestTracerSpanIDBaseRandomized(t *testing.T) {
	a, b := testTracer(100), testTracer(200)
	sa, sb := a.Start("s", "a"), b.Start("s", "b")
	if sa.id == sb.id {
		t.Errorf("two tracers minted the same first span ID %d", sa.id)
	}
	sa.End()
	sb.End()
}

// FuzzParseTraceparent checks the strict parser never panics and that every
// header it accepts round-trips losslessly.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("")
	f.Add("garbage")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted header %q produced invalid context", s)
		}
		re, err := ParseTraceparent(tc.Traceparent())
		if err != nil || re != tc {
			t.Fatalf("accepted header %q did not round-trip: %+v vs %+v (%v)", s, tc, re, err)
		}
	})
}
