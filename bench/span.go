package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark records its own spans at each layer boundary, from outside
// the program: view = one LoadPageContext call, rt = one request seen by the
// timing RoundTripper in a client, mw = one request seen by the middleware
// around a server handler, sw = a stopwatch around a public call the
// benchmark makes itself (Peer.Flush, Peer.TelemetryOnce).
type spanKind uint8

const (
	kindView spanKind = iota
	kindRT
	kindMW
	kindSW
)

var kindNames = [...]string{"view", "rt", "mw", "sw"}

// route is what a span was about: an HTTP route of the origin or a peer, or
// the public call a stopwatch wrapped.
type route uint8

const (
	routeNone route = iota
	routeWrapper
	routeContent
	routeProxy
	routeRecord
	routeUsage
	routeTelemetry
	routeFlush
	routeTelemetryOnce
)

var routeNames = [...]string{"", "/wrapper", "/content", "/proxy", "/record",
	"/usage/batch", "/telemetry/batch", "Peer.Flush", "Peer.TelemetryOnce"}

// routeOf classifies a URL path.
func routeOf(path string) route {
	switch {
	case path == "/wrapper":
		return routeWrapper
	case len(path) >= 9 && path[:9] == "/content/":
		return routeContent
	case len(path) >= 7 && path[:7] == "/proxy/":
		return routeProxy
	case path == "/record":
		return routeRecord
	case path == "/usage/batch":
		return routeUsage
	case path == "/telemetry/batch":
		return routeTelemetry
	}
	return routeNone
}

// span is one timed interval. Start and End are nanoseconds since the
// recorder's epoch. Parent is the span that caused this one (0 = root);
// spans of one page view share the view span as their root.
type span struct {
	ID, Parent int64
	Kind       spanKind
	Route      route
	Start, End int64
	Peer       int8 // index of the peer that served (mw) or sent (rt, sw) it; -1 = origin or loader
	Hit        bool // mw /proxy only: X-Cache was anything but MISS
	Status     int16
}

func (s span) name() string {
	if s.Kind == kindView {
		return "view"
	}
	return kindNames[s.Kind] + " " + routeNames[s.Route]
}

// layer is one of the repo's modules as the critical path sees it.
type layer uint8

const (
	layerLoader layer = iota
	layerHTTP
	layerOriginWrapper
	layerPeerServe
	layerPeerRecords
	layerOriginContent
	layerOther
	numLayers
)

// layerOf says whose time a span's self time is. A client-side rt span's
// self time (its duration minus the server handler inside it) is the
// loopback hop plus net/http on both ends.
func layerOf(s span) layer {
	switch s.Kind {
	case kindView:
		return layerLoader
	case kindRT:
		return layerHTTP
	case kindMW:
		switch s.Route {
		case routeWrapper:
			return layerOriginWrapper
		case routeProxy:
			return layerPeerServe
		case routeRecord:
			return layerPeerRecords
		case routeContent:
			return layerOriginContent
		}
	}
	return layerOther
}

// recorder keeps spans in memory until the run ends. It exists only in a
// traced run; on() gates recording so a traced run can take an untraced
// baseline first.
type recorder struct {
	epoch  time.Time
	gate   atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// serving maps "peer|object path" to the mw /proxy span currently
	// serving it, so the peer's own backfill request to the origin — made on
	// a request built without a context — still gets its parent.
	serving map[string]int64
	// calling[i] is the sw span around the public call the benchmark is
	// making on peer i right now (Flush or TelemetryOnce); that peer's
	// uploads parent under it.
	calling []atomic.Int64
}

func newRecorder(peers int) *recorder {
	return &recorder{
		epoch:   time.Now(),
		spans:   make([]span, 0, 1<<16),
		serving: make(map[string]int64),
		calling: make([]atomic.Int64, peers),
	}
}

func (r *recorder) on() bool      { return r != nil && r.gate.Load() }
func (r *recorder) enable(v bool) { r.gate.Store(v) }
func (r *recorder) now() int64    { return int64(time.Since(r.epoch)) }

// begin opens a span; the caller fills in what it learns and hands it to end.
func (r *recorder) begin(kind spanKind, rt route, parent int64, peer int) span {
	return span{ID: r.nextID.Add(1), Parent: parent, Kind: kind, Route: rt, Start: r.now(), Peer: int8(peer)}
}

func (r *recorder) end(s *span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

func (r *recorder) setServing(key string, id int64) {
	r.mu.Lock()
	if _, busy := r.serving[key]; !busy {
		r.serving[key] = id
	}
	r.mu.Unlock()
}

func (r *recorder) clearServing(key string, id int64) {
	r.mu.Lock()
	if r.serving[key] == id {
		delete(r.serving, key)
	}
	r.mu.Unlock()
}

func (r *recorder) servingSpan(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serving[key]
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTrace writes every span as one JSON array per line:
// [id, parent, view, "name", start_us, end_us, peer, status, hit].
func writeTrace(path string, spans []span, t *spanTree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, `{"format":"one span per line: [id, parent, view, name, start_us, end_us, peer, status, cache_hit]; parent 0 = root; view = id of the page view the span belongs to, 0 = background work","spans":[`)
	buf := make([]byte, 0, 128)
	for i, s := range spans {
		buf = buf[:0]
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Parent, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, t.viewOf(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, s.name())
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, float64(s.Start)/1e3, 'f', 1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, float64(s.End)/1e3, 'f', 1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Peer), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Status), 10)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, s.Hit)
		buf = append(buf, ']')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes recorded spans by parent.
type spanTree struct {
	spans    []span
	byID     map[int64]int
	children map[int64][]int
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, byID: make(map[int64]int, len(spans)), children: make(map[int64][]int)}
	for i, s := range spans {
		t.byID[s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// viewOf walks up to the root and returns its id when the root is a page
// view, 0 otherwise.
func (t *spanTree) viewOf(i int) int64 {
	for hops := 0; hops < 16; hops++ {
		s := t.spans[i]
		if s.Kind == kindView {
			return s.ID
		}
		p, ok := t.byID[s.Parent]
		if !ok {
			return 0
		}
		i = p
	}
	return 0
}

// clipped returns span i's children with their intervals clipped to
// [lo, hi], dropping those that fall outside. A handler can return a few
// microseconds after its client has read the last byte; clipping keeps such
// a child inside the parent it is subtracted from.
func (t *spanTree) clipped(i int, lo, hi int64) []span {
	kids := t.children[t.spans[i].ID]
	out := make([]span, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		if c.Start < lo {
			c.Start = lo
		}
		if c.End > hi {
			c.End = hi
		}
		if c.End > c.Start {
			out = append(out, c)
		}
	}
	return out
}

// selfTime is span i's duration minus the part of it its children cover
// (the union of their intervals, so overlapping children are not
// subtracted twice).
func (t *spanTree) selfTime(i int) int64 {
	s := t.spans[i]
	kids := t.clipped(i, s.Start, s.End)
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	covered, reach := int64(0), s.Start
	for _, c := range kids {
		if c.End <= reach {
			continue
		}
		from := c.Start
		if from < reach {
			from = reach
		}
		covered += c.End - from
		reach = c.End
	}
	return s.End - s.Start - covered
}

// critical charges the interval [lo, hi] of span i to layers along the
// critical path: walking back from hi, it always follows the child that
// finished last before the cursor, charges the gaps between such children to
// span i's own layer, and recurses into each child followed. The charges sum
// to hi - lo exactly. Call it on a root with the root's own Start and End.
func (t *spanTree) critical(i int, lo, hi int64, into *[numLayers]int64) {
	own := layerOf(t.spans[i])
	kids := t.clipped(i, lo, hi)
	sort.Slice(kids, func(a, b int) bool { return kids[a].End > kids[b].End })
	cursor := hi
	for _, c := range kids {
		if c.End > cursor {
			continue // ran in parallel with a child already followed
		}
		into[own] += cursor - c.End
		t.critical(t.byID[c.ID], c.Start, c.End, into)
		cursor = c.Start
	}
	into[own] += cursor - lo
}
