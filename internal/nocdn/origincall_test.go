package nocdn

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hpop/internal/hpop"
)

// originCall is one request a fake origin received on a control path.
type originCall struct {
	method, target, contentType, traceparent string
	body                                     []byte
}

// fakeOrigin answers the four control paths a peer calls. The path under
// test answers as mode says; the others answer as a healthy origin would.
// "refused" drops the connection without an answer.
type fakeOrigin struct {
	srv        *httptest.Server
	path, mode string

	mu    sync.Mutex
	calls []originCall
}

func newFakeOrigin(t *testing.T, path, mode string) *fakeOrigin {
	f := &fakeOrigin{path: path, mode: mode}
	f.srv = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeOrigin) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/health" {
		io.WriteString(w, `{}`)
		return
	}
	body, _ := io.ReadAll(r.Body)
	f.mu.Lock()
	f.calls = append(f.calls, originCall{r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"),
		r.Header.Get(hpop.TraceparentHeader), body})
	f.mu.Unlock()
	if r.URL.Path == f.path {
		switch f.mode {
		case "400":
			http.Error(w, "refused", http.StatusBadRequest)
			return
		case "413":
			http.Error(w, "too large", http.StatusRequestEntityTooLarge)
			return
		case "503":
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		case "garbage":
			io.WriteString(w, "not json{")
			return
		case "refused":
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
	}
	switch r.URL.Path {
	case "/usage/batch":
		io.WriteString(w, `{"credited":1,"submitted":1}`)
	case "/neighbors":
		json.NewEncoder(w).Encode([]PeerInfo{{ID: "nbr", URL: f.srv.URL}})
	case "/gossip":
		io.WriteString(w, `{"nominated":0}`)
	case "/telemetry/batch":
		var batch TelemetryBatch
		json.Unmarshal(body, &batch)
		ack := TelemetryAck{Acks: map[string]uint64{}}
		for _, rep := range batch.Reports {
			ack.Acks[rep.Source] = rep.Seq
		}
		json.NewEncoder(w).Encode(ack)
	}
}

// callsTo returns the recorded requests to path.
func (f *fakeOrigin) callsTo(path string) []originCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []originCall
	for _, c := range f.calls {
		if p, _, _ := strings.Cut(c.target, "?"); p == path {
			out = append(out, c)
		}
	}
	return out
}

// TestPeerOriginCalls pins the four requests a peer makes of its origin —
// the record upload, the neighbors GET, the gossip POST and the telemetry
// POST — against an origin that answers 2xx, 400, 413, 503, a 2xx with a
// body that does not parse, or drops the connection. Each call sends one
// request per cycle with its method, target, Content-Type, body and
// traceparent, and keeps its own verdict: records settle on 2xx or 400 and
// are otherwise requeued behind a closed gate; a gossip report counts only
// on a 200; the neighbors GET fails on any other answer or on a body that
// does not parse; telemetry acks on a 200 and otherwise stays pending.
func TestPeerOriginCalls(t *testing.T) {
	const peerID = "peer-a"
	leaf := spoolLeaf(10, "n1")
	_, wantBatch, err := nextUpload(peerID, []string{leaf})
	if err != nil {
		t.Fatal(err)
	}
	wantGossip, _ := json.Marshal(GossipReport{From: peerID, Observations: []PeerObservation{{PeerID: "nbr", Healthy: true}}})

	for _, mode := range []string{"200", "400", "413", "503", "garbage", "refused"} {
		ok := mode == "200"
		t.Run("flush/"+mode, func(t *testing.T) {
			f := newFakeOrigin(t, "/usage/batch", mode)
			p := NewPeer(peerID, 1<<20)
			p.SetTracer(hpop.NewTracer(0))
			p.SignUp("x", f.srv.URL+"/")
			p.lanes["x"] = &lane{records: []string{leaf}}
			n, err := p.Flush(f.srv.URL)
			settles := ok || mode == "400" || mode == "garbage"
			if settles && (n != 1 || err != nil || p.PendingRecords() != 0) {
				t.Errorf("flush = %d, %v with %d pending; want the record settled", n, err, p.PendingRecords())
			}
			if !settles {
				if n != 0 || err == nil || p.PendingRecords() != 1 {
					t.Errorf("flush = %d, %v with %d pending; want the record requeued", n, err, p.PendingRecords())
				}
				if _, err := p.Flush(f.srv.URL); !errors.Is(err, ErrFlushDeferred) {
					t.Errorf("flush behind a closed gate = %v, want ErrFlushDeferred", err)
				}
			}
			checkCalls(t, f.callsTo("/usage/batch"), originCall{http.MethodPost, "/usage/batch", "application/json", "", wantBatch})
		})
		t.Run("neighbors/"+mode, func(t *testing.T) {
			f := newFakeOrigin(t, "/neighbors", mode)
			p := NewPeer(peerID, 1<<20)
			p.SetTracer(hpop.NewTracer(0))
			n, err := p.GossipOnce(context.Background(), f.srv.URL+"/")
			if ok != (n == 1 && err == nil) {
				t.Errorf("gossip = %d, %v", n, err)
			}
			checkCalls(t, f.callsTo("/neighbors"), originCall{http.MethodGet, "/neighbors?peer=" + peerID, "", "", nil})
			if sent := len(f.callsTo("/gossip")); ok != (sent == 1) || sent > 1 {
				t.Errorf("%d gossip POSTs after the neighbors GET", sent)
			}
		})
		t.Run("gossip/"+mode, func(t *testing.T) {
			f := newFakeOrigin(t, "/gossip", mode)
			p := NewPeer(peerID, 1<<20)
			m := hpop.NewMetrics()
			p.SetMetrics(m)
			p.SetTracer(hpop.NewTracer(0))
			n, err := p.GossipOnce(context.Background(), f.srv.URL)
			counted := ok || mode == "garbage"
			reports := m.Counter("nocdn.peer.gossip_reports")
			if counted != (n == 1 && err == nil) || counted != (reports == 1) {
				t.Errorf("gossip = %d, %v with %v reports counted", n, err, reports)
			}
			checkCalls(t, f.callsTo("/gossip"), originCall{http.MethodPost, "/gossip", "application/json", "", wantGossip})
		})
		t.Run("telemetry/"+mode, func(t *testing.T) {
			f := newFakeOrigin(t, "/telemetry/batch", mode)
			p := NewPeer(peerID, 1<<20)
			m := hpop.NewMetrics()
			p.SetMetrics(m)
			p.SetTracer(hpop.NewTracer(0))
			m.Inc("nocdn.peer.hits")
			rep := p.EnableTelemetry(0).NextReport()
			want, _ := json.Marshal(TelemetryBatch{Reports: []*hpop.TelemetryReport{rep}})
			sent, err := p.TelemetryOnce(context.Background(), f.srv.URL+"/")
			if ok != (sent && err == nil) || ok == p.TelemetryReporter().Pending() {
				t.Errorf("telemetry = %v, %v with pending %v", sent, err, p.TelemetryReporter().Pending())
			}
			checkCalls(t, f.callsTo("/telemetry/batch"), originCall{http.MethodPost, "/telemetry/batch", "application/json", "", want})
		})
	}
}

// checkCalls requires exactly one recorded request, equal to want and
// carrying a traceparent.
func checkCalls(t *testing.T, calls []originCall, want originCall) {
	t.Helper()
	if len(calls) != 1 {
		t.Fatalf("%d requests to %s, want 1", len(calls), want.target)
	}
	got := calls[0]
	if got.traceparent == "" {
		t.Errorf("%s carries no traceparent", got.target)
	}
	if got.method != want.method || got.target != want.target || got.contentType != want.contentType || !bytes.Equal(got.body, want.body) {
		t.Errorf("request = %s %s (%q) %q\nwant %s %s (%q) %q", got.method, got.target, got.contentType, got.body,
			want.method, want.target, want.contentType, want.body)
	}
}
