package nocdn

import (
	"crypto/sha256"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/hpop"
)

// TestParseProviders: empty entries are skipped, and an entry without '='
// or whose name could not travel in a leaf is refused.
func TestParseProviders(t *testing.T) {
	got, err := ParseProviders("a=http://x,,b=http://y/,")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]string{{"a", "http://x"}, {"b", "http://y/"}}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ParseProviders = %q, want %q", got, want)
	}
	if got, err := ParseProviders(""); err != nil || len(got) != 0 {
		t.Errorf("ParseProviders(\"\") = %q, %v; want none", got, err)
	}
	if _, err := ParseProviders("a=http://x,noequals"); err == nil || !strings.Contains(err.Error(), "noequals") {
		t.Errorf("an entry without '=' gave %v", err)
	}
	if _, err := ParseProviders("a|b=http://x"); !errors.Is(err, ErrFieldSeparator) {
		t.Errorf("a name holding '|' gave %v, want ErrFieldSeparator", err)
	}
}

// TestOpenPeerCloseStopsEverything: a peer booted with every loop at 1 ms
// and a state dir ticks each of them, and after Close nothing ticks. A
// record accepted before Close is requeued by the next boot on the dir.
func TestOpenPeerCloseStopsEverything(t *testing.T) {
	// A cycle reaches this origin, which refuses it slowly: a Close that
	// does not wait for the tick in flight is caught (loop_test.go).
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		http.Error(w, "refused", http.StatusBadRequest)
	}))
	defer origin.Close()
	sent := &returnCounter{next: &http.Transport{}}
	defer sent.next.CloseIdleConnections()
	metrics := hpop.NewMetrics()
	metrics.Inc("something.to.report")
	cfg := PeerConfig{
		ID:                "peer-a",
		Providers:         [][2]string{{"x", origin.URL}},
		FetchTimeout:      time.Second,
		Transport:         sent,
		StateDir:          t.TempDir(),
		ScrubInterval:     time.Millisecond,
		GossipInterval:    time.Millisecond,
		TelemetryInterval: time.Millisecond,
		Metrics:           metrics,
	}
	p, err := OpenPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scrubs := func() int64 { return int64(metrics.Counter("nocdn.scrub.passes")) }
	ticks := func() int64 { return sent.n.Load() + scrubs() }
	deadline := time.Now().Add(2 * time.Second)
	for (scrubs() == 0 || sent.n.Load() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if scrubs() == 0 || sent.n.Load() == 0 {
		t.Fatalf("the loops never ticked: %d scrub passes, %d requests", scrubs(), sent.n.Load())
	}

	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/record", strings.NewReader(spoolLeaf(1, "n0"))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("/record = %d %s", rec.Code, rec.Body)
	}
	p.Close()
	if !quiet(ticks) {
		t.Fatal("a loop kept ticking after Close")
	}
	p.Close() // idempotent

	cfg.ScrubInterval, cfg.GossipInterval, cfg.TelemetryInterval = 0, 0, 0
	p2, err := OpenPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if n := p2.PendingRecords(); n != 1 {
		t.Errorf("the next boot requeued %d records, want the 1 accepted before Close", n)
	}
}

// TestOpenPeerUndoesFailedBoot: a state dir whose spool the peer refuses
// fails the boot with errStateFormat, and the boot leaves nothing running
// and no file open under the dir, and the spool keeps its bytes. The dir
// holds a segment, which the refused boot's disk tier opened first.
func TestOpenPeerUndoesFailedBoot(t *testing.T) {
	parent, err := os.ReadFile(filepath.Join("testdata", "parent_records.spool"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, err := OpenPeer(PeerConfig{ID: "peer-a", CacheBytes: 1 << 20, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100<<10) // past a 64 KiB memory shard: it goes to disk
	first.cachePut("x|/big", data, sha256.Sum256(data), nil)
	if _, _, segments := first.DiskCacheStats(); segments == 0 {
		t.Fatal("the disk tier wrote no segment")
	}
	first.Close()
	if open := openFilesUnder(t, dir); len(open) > 0 {
		t.Fatalf("Close left files open: %q", open)
	}
	spool := filepath.Join(dir, spoolFileName)
	if err := os.WriteFile(spool, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := hpop.NewMetrics()
	p, err := OpenPeer(PeerConfig{ID: "peer-a", StateDir: dir, ScrubInterval: time.Millisecond, Metrics: metrics})
	if !errors.Is(err, errStateFormat) || p != nil {
		t.Fatalf("OpenPeer = %v, %v; want nil, errStateFormat", p, err)
	}
	if !quiet(func() int64 { return int64(metrics.Counter("nocdn.scrub.passes")) }) {
		t.Error("the failed boot left the scrubber running")
	}
	if after, err := os.ReadFile(spool); err != nil || string(after) != string(parent) {
		t.Errorf("the failed boot changed the spool (err %v)", err)
	}
	if open := openFilesUnder(t, dir); len(open) > 0 {
		t.Errorf("the failed boot left files open: %q", open)
	}
}

// openFilesUnder lists the files under dir this process holds open; it skips
// t where /proc/self/fd cannot be read.
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestOriginShutdownStopsLoops: Shutdown halts the probe and epoch loops
// before its final snapshot, so no tick advances the epoch past what the
// snapshot holds or appends to the closed journal.
func TestOriginShutdownStopsLoops(t *testing.T) {
	var probes atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()
	metrics := hpop.NewMetrics()
	o := NewOrigin("x", WithHealthRegistry(hpop.NewHealthRegistry(hpop.BreakerConfig{})))
	o.SetMetrics(metrics)
	if _, err := o.AttachWAL(t.TempDir(), WALOptions{Fsync: FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterPeer("peer-a", peer.URL, 10); err != nil {
		t.Fatal(err)
	}
	registered := o.assignEpoch.Load()
	o.StartLoops(time.Millisecond, 0, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for (probes.Load() == 0 || o.assignEpoch.Load() == registered) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if probes.Load() == 0 || o.assignEpoch.Load() == registered {
		t.Fatalf("the loops never ticked: %d probes, epoch %d", probes.Load(), o.assignEpoch.Load())
	}
	if err := o.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !quiet(func() int64 { return o.assignEpoch.Load() + probes.Load() }) {
		t.Error("a loop kept ticking after Shutdown")
	}
	if n := metrics.Counter("nocdn.wal.append_errors"); n != 0 {
		t.Errorf("nocdn.wal.append_errors = %v after Shutdown, want 0", n)
	}
}

// TestOriginShutdownCancelsProbePass: a probe pass blocked on a peer that
// never answers does not hold up Shutdown for the probe client's timeout;
// the halt cancels it.
func TestOriginShutdownCancelsProbePass(t *testing.T) {
	probing, release := make(chan struct{}, 1), make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case probing <- struct{}{}:
		default:
		}
		<-release
	}))
	defer peer.Close()
	defer close(release)
	o := NewOrigin("x", WithHealthRegistry(hpop.NewHealthRegistry(hpop.BreakerConfig{})))
	if err := o.RegisterPeer("peer-a", peer.URL, 10); err != nil {
		t.Fatal(err)
	}
	o.StartLoops(time.Millisecond, 0, 0)
	select {
	case <-probing:
	case <-time.After(5 * time.Second):
		t.Fatal("no probe reached the peer")
	}
	start := time.Now()
	if err := o.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= o.probeClient.Timeout/2 {
		t.Errorf("Shutdown took %v behind a blocked probe (probe timeout %v)", took, o.probeClient.Timeout)
	}
}

// TestCloseDoesNotWaitOutGossip: a gossip cycle blocked on an origin that
// never answers ends when Close halts the loop, well before any fetch
// timeout would cut it.
func TestCloseDoesNotWaitOutGossip(t *testing.T) {
	gossiping, release := make(chan struct{}, 1), make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case gossiping <- struct{}{}:
		default:
		}
		<-release
	}))
	defer origin.Close()
	defer close(release)
	p, err := OpenPeer(PeerConfig{ID: "p", Providers: [][2]string{{"x", origin.URL}}, GossipInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gossiping:
	case <-time.After(5 * time.Second):
		t.Fatal("no gossip request reached the origin")
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waiting on a gossip cycle after 2s")
	}
}

// TestOpenPeerZeroFetchTimeoutIsDefault: a zero FetchTimeout leaves the
// peer's outbound client at DefaultPeerFetchTimeout, not unbounded.
func TestOpenPeerZeroFetchTimeoutIsDefault(t *testing.T) {
	p, err := OpenPeer(PeerConfig{ID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.httpClient.Timeout; got != DefaultPeerFetchTimeout {
		t.Errorf("client timeout = %v, want %v", got, DefaultPeerFetchTimeout)
	}
}
