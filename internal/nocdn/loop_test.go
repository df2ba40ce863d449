package nocdn

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/hpop"
)

// quiet reports whether count stops moving: it must read the same before and
// after a pause many ticks long.
func quiet(count func() int64) bool {
	before := count()
	time.Sleep(30 * time.Millisecond)
	return count() == before
}

// TestBackgroundLoopConcurrentStarts is the lifecycle bug the shared loop
// fixes: Start* used to call Stop* and only then take the lifecycle mutex, so
// concurrent starts all passed the stop, each overwrote the last one's
// channels, and every goroutine but the final one ticked for ever with nobody
// holding its stop. Through the start method of each of the three loops: N
// concurrent starts, one halt, and nothing ticks afterwards.
func TestBackgroundLoopConcurrentStarts(t *testing.T) {
	const starts = 8
	for _, tc := range []struct {
		name  string
		start func(p *Peer, originURL string)
		stop  func(p *Peer)
	}{
		{"scrub", func(p *Peer, _ string) { p.startCacheScrub(time.Millisecond) }, func(p *Peer) { p.scrubLoop.halt() }},
		{"gossip", func(p *Peer, u string) { p.startGossip(u, time.Millisecond) }, func(p *Peer) { p.gossipLoop.halt() }},
		{"telemetry", func(p *Peer, u string) { p.startTelemetry(u, time.Millisecond) }, func(p *Peer) { p.telemetryLoop.halt() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every tick is visible from outside: a scrub pass moves a counter,
			// a gossip or telemetry cycle asks this origin (which refuses, so a
			// cycle is one request and the telemetry report stays pending).
			// A request counts when it returns to the tick that sent it, never
			// when it reaches the server: a request the tick gave up on can
			// arrive after the stop has returned. The origin answers slowly, so
			// a stop that does not wait for the tick in flight is caught.
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(2 * time.Millisecond)
				http.Error(w, "refused", http.StatusBadRequest)
			}))
			defer origin.Close()
			sent := &returnCounter{next: &http.Transport{}}
			defer sent.next.CloseIdleConnections()
			metrics := hpop.NewMetrics()
			p := NewPeer("loops", 0)
			p.SetHTTPClient(&http.Client{Transport: sent})
			p.SetMetrics(metrics)
			if err := p.AttachDiskCache(t.TempDir(), 0, 0); err != nil {
				t.Fatal(err)
			}
			defer p.CloseDiskCache()
			metrics.Inc("something.to.report")
			ticks := func() int64 {
				return sent.n.Load() + int64(metrics.Counter("nocdn.scrub.passes"))
			}

			var wg sync.WaitGroup
			for i := 0; i < starts; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tc.start(p, origin.URL)
				}()
			}
			wg.Wait()
			deadline := time.Now().Add(2 * time.Second)
			for ticks() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if ticks() == 0 {
				t.Fatal("the loop never ticked")
			}
			tc.stop(p)
			if !quiet(ticks) {
				t.Fatalf("%d concurrent starts and one stop left a loop running", starts)
			}
			tc.stop(p) // idempotent
		})
	}
}

// returnCounter counts the requests a client sends as each returns, in the
// goroutine that sent it.
type returnCounter struct {
	n    atomic.Int64
	next *http.Transport
}

func (c *returnCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	defer c.n.Add(1)
	return c.next.RoundTrip(r)
}

// TestBackgroundLoopRestartReplaces: a second start halts the first loop
// before it returns, a halt halts the second, and halting nothing is a no-op.
func TestBackgroundLoopRestartReplaces(t *testing.T) {
	var l loop
	l.halt()
	var first, second atomic.Int64
	l.start(time.Millisecond, func(context.Context) { first.Add(1) })
	l.start(time.Millisecond, func(context.Context) { second.Add(1) })
	if !quiet(first.Load) {
		t.Fatal("the replaced loop is still ticking")
	}
	if second.Load() == 0 {
		t.Fatal("the replacing loop never ticked")
	}
	l.halt()
	l.halt()
	if !quiet(second.Load) {
		t.Fatal("the halted loop is still ticking")
	}
}
