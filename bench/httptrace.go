package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hpop/internal/nocdn"
)

// spanHeader carries a client-side rt span's id to the server, so the
// middleware's span gets its parent.
const spanHeader = "X-Bench-Span"

type viewKey struct{}

// withView marks ctx as belonging to the page view whose span has this id;
// the loader derives every request context of the view from it.
func withView(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, viewKey{}, id)
}

// server is one loopback HTTP listener.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// newTransport is one keep-alive connection pool; dials counts the TCP
// connections it opens. Idle capacity per host matches the loader's
// concurrency, the way a browser keeps its per-origin connections.
func newTransport(dials *atomic.Int64) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 2 * nocdn.DefaultConcurrency,
		IdleConnTimeout:     90 * time.Second,
	}
}

// spanTransport records one rt span per request, from RoundTrip to the
// moment the caller closes the response body, and stamps the span id on the
// request. peer is the index of the peer whose client this is, -1 for a
// loader.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
	peer int
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on() {
		return t.base.RoundTrip(req)
	}
	rt := routeOf(req.URL.Path)
	var parent int64
	switch {
	case t.peer < 0:
		parent, _ = req.Context().Value(viewKey{}).(int64)
	case rt == routeContent:
		parent = t.rec.servingSpan(servingKey(t.peer, strings.TrimPrefix(req.URL.Path, "/content")))
	default:
		parent = t.rec.calling[t.peer].Load()
	}
	s := t.rec.begin(kindRT, rt, parent, t.peer)
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.Status = -1
		t.rec.end(&s)
		return nil, err
	}
	s.Status = int16(resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	rec    *recorder
	s      span
	closed bool
}

func (b *spanBody) Close() error {
	if !b.closed {
		b.closed = true
		b.rec.end(&b.s)
	}
	return b.ReadCloser.Close()
}

func servingKey(peer int, objectPath string) string {
	return strconv.Itoa(peer) + "|" + objectPath
}

// middleware records one mw span per request around h. peer is the index of
// the peer h belongs to, -1 for the origin.
func (r *recorder) middleware(h http.Handler, peer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		s := r.begin(kindMW, routeOf(req.URL.Path), parent, peer)
		key := ""
		if s.Route == routeProxy {
			// "/proxy/<provider>/<object path>"
			rest := strings.TrimPrefix(req.URL.Path, "/proxy/")
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				key = servingKey(peer, rest[i:])
				r.setServing(key, s.ID)
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, req)
		if key != "" {
			r.clearServing(key, s.ID)
		}
		s.Status = int16(sw.status)
		s.Hit = s.Route == routeProxy && sw.Header().Get(nocdn.XCacheHeader) != nocdn.XCacheMiss
		r.end(&s)
	})
}

// statusWriter remembers the status code. It forwards ReadFrom so the
// peer's zero-copy serve (io.Copy into the response, sendfile underneath)
// is the same with and without the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	return io.Copy(s.ResponseWriter, src)
}
