package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hpop/internal/nocdn"
)

// daemonEnv switches a re-executed test binary into the daemon: TestMain
// runs main() instead of the tests, so every child below is nocdnd itself —
// its flag wiring, its exit code, its signal handling — with no go build at
// test time.
const daemonEnv = "NOCDND_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// httpc never reuses a connection, so a request after a SIGKILL cannot land
// on a socket the dead child left behind.
var httpc = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// daemon is one nocdnd child process serving at base.
type daemon struct {
	t      *testing.T
	base   string
	args   []string
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
	err    error // the child's exit, valid once exited is closed
}

// newDaemon prepares nocdnd with args, to serve at base once started. The
// child is SIGKILLed at cleanup if the test has not stopped it.
func newDaemon(t *testing.T, base string, args ...string) *daemon {
	d := &daemon{t: t, base: base, args: args}
	t.Cleanup(func() {
		if d.exited == nil {
			return // never started
		}
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	return d
}

// bootDaemons starts an origin and a peer pointed at each other, each on a
// loopback port from freeAddrs. Those ports are free only until the children
// bind them, and other packages' tests open sockets meanwhile, so a pair
// that loses a port to one boots again on fresh ports.
func bootDaemons(t *testing.T, originArgs, peerArgs func(originURL, peerURL string) []string) (origin, peer *daemon) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		addrs := freeAddrs(t, 2)
		originURL, peerURL := "http://"+addrs[0], "http://"+addrs[1]
		origin = newDaemon(t, originURL, append([]string{"-listen", addrs[0]}, originArgs(originURL, peerURL)...)...)
		if origin.start() {
			peer = newDaemon(t, peerURL, append([]string{"-listen", addrs[1]}, peerArgs(originURL, peerURL)...)...)
			if peer.start() {
				return origin, peer
			}
			origin.stop(syscall.SIGTERM)
		}
		if attempt == 3 {
			t.Fatalf("lost a loopback port to another socket on %d boots", attempt)
		}
	}
}

// restart starts the child again on its port, which the stopped child just
// released and another package's socket may hold for a moment.
func (d *daemon) restart() {
	d.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !d.start(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.t.Fatalf("nocdnd %v: port still taken after 5 s:\n%s", d.args, d.output())
		}
	}
}

// start starts the child and waits until it answers /healthz. It reports
// false, with the child gone, if the child could not bind its port.
func (d *daemon) start() (bound bool) {
	d.t.Helper()
	d.cmd = newChild(d.t, d.args...)
	out, err := os.CreateTemp(d.t.TempDir(), "nocdnd-*.log")
	if err != nil {
		d.t.Fatal(err)
	}
	defer out.Close()
	d.log = out.Name()
	d.cmd.Stdout, d.cmd.Stderr = out, out
	if err := d.cmd.Start(); err != nil {
		d.t.Fatal(err)
	}
	d.exited = make(chan struct{})
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := httpc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		select {
		case <-d.exited:
			if strings.Contains(d.output(), syscall.EADDRINUSE.Error()) {
				return false
			}
			d.t.Fatalf("nocdnd %v exited before serving (%v):\n%s", d.args, d.err, d.output())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("nocdnd %v never answered /healthz:\n%s", d.args, d.output())
		}
	}
}

// stop delivers sig and waits for the child to exit. SIGTERM must end in
// exit status 0; SIGKILL ends however the kernel ends it.
func (d *daemon) stop(sig syscall.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.t.Fatalf("nocdnd %v ignored %v:\n%s", d.args, sig, d.output())
	}
	if sig == syscall.SIGTERM && d.err != nil {
		d.t.Fatalf("nocdnd %v: SIGTERM exit %v:\n%s", d.args, d.err, d.output())
	}
}

func (d *daemon) output() string {
	b, _ := os.ReadFile(d.log)
	return string(b)
}

func newChild(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	return cmd
}

// freeAddrs picks n distinct free loopback ports; each daemon binds its own
// again through -listen, so no test shares a fixed port.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

func get(t *testing.T, u string) (int, http.Header, string) {
	t.Helper()
	resp, err := httpc.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// getJSON GETs u, wants 200, and decodes the body into v.
func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	code, _, body := get(t, u)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v in %.300s", u, err, body)
	}
}

// wantMetrics checks that base's /metrics exposes every name.
func wantMetrics(t *testing.T, base string, names ...string) {
	t.Helper()
	_, _, body := get(t, base+"/metrics")
	for _, name := range names {
		if !strings.Contains(body, name) {
			t.Errorf("%s/metrics lacks %s", base, name)
		}
	}
}

// isArray reports whether a decoded JSON value is an array (jq's
// `type == "array"`).
func isArray(v any) bool {
	_, ok := v.([]any)
	return ok
}

// TestDaemonProcesses drives an origin and a peer as real nocdnd processes,
// in the order an operator meets them: the origin's boot surface, the
// peer's, the edge cache over the wire, peer telemetry landing at the
// origin, then the durable sequence — load and settle on a -state-dir
// origin with -fsync always, SIGKILL it, restart on the same directory
// (credit unchanged, journal replayed, a replayed batch bounces), load
// again, SIGTERM (drain and snapshot), and boot once more replaying
// nothing.
func TestDaemonProcesses(t *testing.T) {
	site := t.TempDir()
	for name, body := range map[string]string{
		"index.html": "<html>durable</html>",
		"app.js":     "console.log(1)",
	} {
		if err := os.WriteFile(filepath.Join(site, name), []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	origin, peer := bootDaemons(t,
		func(_, peerURL string) []string {
			return []string{"-mode", "origin", "-provider", "example.com", "-content", site,
				"-state-dir", t.TempDir(), "-fsync", "always",
				"-replicas", "1", "-peer", "ci-peer=" + peerURL}
		},
		func(originURL, _ string) []string {
			return []string{"-mode", "peer", "-id", "ci-peer", "-provider", "example.com=" + originURL,
				"-cache-dir", t.TempDir(), "-disk-cache-mb", "64", "-segment-mb", "8",
				"-telemetry-interval", "250ms"}
		})
	originURL, peerURL := origin.base, peer.base
	checkOriginBoot(t, originURL)
	// The tiered-cache and scrub counter families are visible before any
	// traffic.
	wantMetrics(t, peerURL, "nocdn.cache.hits.mem", "nocdn.cache.hits.disk", "nocdn.scrub.passes")

	checkEdgeCache(t, peerURL+"/proxy/example.com/index.html")
	checkFleetTelemetry(t, originURL)

	// Real page views drop usage records at the peer; a flush settles them
	// against the origin. Every credit below is acked durable. One batch
	// the test signs itself rides along, to be replayed after the crash.
	load(t, originURL, 3)
	flush(t, peerURL, originURL)
	threeViews := credited(t, originURL)
	if threeViews <= 0 || threeViews%3 != 0 {
		t.Fatalf("creditedBytes = %d after three views of one page and a flush", threeViews)
	}
	replay := signedBatch(t, originURL)
	if code, body := postBatch(t, originURL, replay); code != http.StatusOK {
		t.Fatalf("POST /usage/batch: %d %s", code, body)
	}
	credit := credited(t, originURL)
	if credit != threeViews+replayBytes {
		t.Fatalf("creditedBytes = %d after the test's own batch, want %d + %d", credit, threeViews, replayBytes)
	}
	var wal nocdn.WALStatus
	getJSON(t, originURL+"/debug/wal", &wal)
	if !wal.Attached || wal.LastSeq == 0 {
		t.Fatalf("/debug/wal before the kill = %+v, want attached with lastSeq > 0", wal)
	}

	// SIGKILL: no drain, no snapshot. The journal is all that survives, and
	// the books reopen exactly where they closed.
	origin.stop(syscall.SIGKILL)
	origin.restart()
	if got := credited(t, originURL); got != credit {
		t.Fatalf("creditedBytes after kill -9 = %d, want %d", got, credit)
	}
	getJSON(t, originURL+"/debug/wal", &wal)
	if !wal.Attached || wal.Recovery.RecordsReplayed == 0 {
		t.Fatalf("/debug/wal after kill -9 = %+v, want attached with recordsReplayed > 0", wal)
	}
	if code, body := postBatch(t, originURL, replay); code != http.StatusBadRequest {
		t.Fatalf("replayed batch after kill -9: %d %s, want 400", code, body)
	}

	// One more view is credited exactly once: the same page, the same
	// bytes as each of the first three.
	load(t, originURL, 1)
	flush(t, peerURL, originURL)
	credit2 := credited(t, originURL)
	if credit2 != credit+threeViews/3 {
		t.Fatalf("creditedBytes after one more view = %d, want %d + %d", credit2, credit, threeViews/3)
	}

	// SIGTERM drains and snapshots; the next boot replays nothing.
	origin.stop(syscall.SIGTERM)
	origin.restart()
	getJSON(t, originURL+"/debug/wal", &wal)
	if !wal.Attached || wal.Recovery.RecordsReplayed != 0 || wal.Recovery.SnapshotSeq == 0 {
		t.Fatalf("/debug/wal after SIGTERM = %+v, want recordsReplayed 0 and snapshotSeq > 0", wal)
	}
	if got := credited(t, originURL); got != credit2 {
		t.Fatalf("creditedBytes after SIGTERM restart = %d, want %d", got, credit2)
	}
	peer.stop(syscall.SIGTERM)
	origin.stop(syscall.SIGTERM)
}

// checkOriginBoot covers the origin's debug surface before any traffic.
func checkOriginBoot(t *testing.T, originURL string) {
	t.Helper()
	// The registered peer's breaker gauge is exported before traffic, and
	// /debug/health lists it as closed.
	wantMetrics(t, originURL, "hpop.breaker.state.ci-peer")
	var health struct {
		Peers []struct{ ID, State string }
	}
	getJSON(t, originURL+"/debug/health", &health)
	closed := 0
	for _, p := range health.Peers {
		if p.ID == "ci-peer" && p.State == "closed" {
			closed++
		}
	}
	if closed != 1 {
		t.Errorf("/debug/health peers = %+v, want ci-peer closed once", health.Peers)
	}

	// /debug/trace?id= echoes the queried id with a spans array, even for a
	// trace nobody recorded; a malformed id is a clean 400.
	const id = "0123456789abcdef0123456789abcdef"
	var trace map[string]any
	getJSON(t, originURL+"/debug/trace?id="+id, &trace)
	if trace["traceId"] != id || !isArray(trace["spans"]) {
		t.Errorf("/debug/trace?id=%s = %v", id, trace)
	}
	if code, _, _ := get(t, originURL+"/debug/trace?id=zz"); code != http.StatusBadRequest {
		t.Errorf("/debug/trace?id=zz status %d, want 400", code)
	}

	// /debug/audit serves the settlement-audit snapshot.
	var audit map[string]any
	getJSON(t, originURL+"/debug/audit", &audit)
	if !isArray(audit["peers"]) {
		t.Errorf("/debug/audit = %v, want a peers array", audit)
	}
}

// checkEdgeCache fetches one object twice through the peer: an origin round
// trip that says so, then a cache hit with an Age and the origin's
// Cache-Control replayed.
func checkEdgeCache(t *testing.T, u string) {
	t.Helper()
	code, h, body := get(t, u)
	if code != http.StatusOK || body != "<html>durable</html>" || h.Get("X-Cache") != "MISS" {
		t.Fatalf("first fetch: %d X-Cache=%q %q", code, h.Get("X-Cache"), body)
	}
	code, h, body = get(t, u)
	if code != http.StatusOK || body != "<html>durable</html>" || h.Get("X-Cache") != "HIT" {
		t.Fatalf("second fetch: %d X-Cache=%q %q", code, h.Get("X-Cache"), body)
	}
	if age := h.Get("Age"); age == "" || age[0] < '0' || age[0] > '9' {
		t.Errorf("cache hit Age = %q, want a number", age)
	}
	if cc := h.Get("Cache-Control"); !strings.HasPrefix(cc, "max-age=") {
		t.Errorf("cache hit Cache-Control = %q, want the origin's max-age=…", cc)
	}
}

// checkFleetTelemetry waits for the peer's shipped deltas — which carry the
// hits checkEdgeCache caused — to land in the origin's fleet rollups, then
// checks the SLO surface.
func checkFleetTelemetry(t *testing.T, originURL string) {
	t.Helper()
	var fleet nocdn.FleetSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, originURL+"/debug/fleet", &fleet)
		if fleet.Reports >= 1 && fleet.Counters["fleet.nocdn.peer.hits"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no peer hits reached /debug/fleet: %+v", fleet)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if fleet.Sources != 1 {
		t.Errorf("/debug/fleet sources = %d, want 1", fleet.Sources)
	}
	wantMetrics(t, originURL, "fleet.nocdn.peer.hits", "hpop.scrape.duration_seconds",
		"slo.fleet-availability.error_budget_remaining")
	// All three declared SLOs answer with burn-rate fields.
	var slo struct{ SLOs []map[string]any }
	getJSON(t, originURL+"/debug/slo", &slo)
	if len(slo.SLOs) != 3 {
		t.Fatalf("/debug/slo has %d SLOs, want 3", len(slo.SLOs))
	}
	for _, field := range []string{"burnRate5m", "budgetRemaining1h"} {
		if _, ok := slo.SLOs[0][field]; !ok {
			t.Errorf("/debug/slo[0] lacks %s: %v", field, slo.SLOs[0])
		}
	}
}

// load runs views page views of "index" as a nocdnd -mode load child.
func load(t *testing.T, originURL string, views int) {
	t.Helper()
	out, err := newChild(t, "-mode", "load", "-origin", originURL, "-page", "index",
		"-client", "ci-client", "-views", fmt.Sprint(views)).CombinedOutput()
	if err != nil {
		t.Fatalf("nocdnd -mode load: %v\n%s", err, out)
	}
}

// flush asks the peer to settle its queued records, retrying while its
// backoff gate is closed (a flush that raced the origin's restart).
func flush(t *testing.T, peerURL, originURL string) {
	t.Helper()
	u := peerURL + "/flush?origin=" + url.QueryEscape(originURL)
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, _, body := get(t, u)
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /flush: %d %s", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func credited(t *testing.T, originURL string) int64 {
	t.Helper()
	var acct nocdn.Accounting
	getJSON(t, originURL+"/accounting?peer=ci-peer", &acct)
	if acct.Suspended {
		t.Fatalf("ci-peer suspended: %+v", acct)
	}
	return acct.CreditedBytes
}

// replayBytes is what the test's own batch credits.
const replayBytes = 7

// signedBatch signs one usage record under the key ci-client's wrapper
// hands out — the bytes a peer would upload, kept so they can be replayed.
func signedBatch(t *testing.T, originURL string) []byte {
	t.Helper()
	var w nocdn.Wrapper
	getJSON(t, originURL+"/wrapper?page=index&client=ci-client", &w)
	key, ok := w.Keys["ci-peer"]
	if !ok {
		t.Fatalf("wrapper carries no ci-peer key: %+v", w.Keys)
	}
	secret, err := hex.DecodeString(key.Secret)
	if err != nil {
		t.Fatal(err)
	}
	rec := nocdn.UsageRecord{
		Provider: "example.com", PeerID: "ci-peer", KeyID: key.KeyID, Page: "index",
		Bytes: replayBytes, Objects: 1, Nonce: "daemon-test-replay", IssuedAt: time.Now(),
	}
	rec.Sign(secret)
	body, err := nocdn.EncodeBatch(nocdn.NewRecordBatch("ci-peer", []nocdn.UsageRecord{rec}))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBatch(t *testing.T, originURL string, body []byte) (int, string) {
	t.Helper()
	resp, err := httpc.Post(originURL+"/usage/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /usage/batch: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}
