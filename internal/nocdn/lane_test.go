package nocdn

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/faults"
)

// deadOrigin is an origin that answers every request 503, counting them;
// onRequest, if set, runs first.
func deadOrigin(t *testing.T, onRequest func()) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if onRequest != nil {
			onRequest()
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// laneLeaves returns a copy of provider's queued leaves.
func laneLeaves(p *Peer, provider string) []string {
	p.recordsMu.Lock()
	defer p.recordsMu.Unlock()
	if l := p.lanes[provider]; l != nil {
		return slices.Clone(l.records)
	}
	return nil
}

// unsignedRecord is an unsigned record for provider at peer-a; /record
// takes it, and no origin would credit it.
func unsignedRecord(provider string, n int) UsageRecord {
	return UsageRecord{Provider: provider, PeerID: "peer-a", Bytes: 1, Nonce: fmt.Sprintf("%s-%d", provider, n)}
}

// leavesOf returns the leaves a peer queues for recs.
func leavesOf(recs ...UsageRecord) []string {
	var out []string
	for _, rec := range recs {
		out = append(out, string(rec.LeafBytes()))
	}
	return out
}

// TestDeadOriginBacklogRefusesNoLiveRecord: with the cap at 4, a provider
// whose origin answers 503 fills its lane and fails a flush. A record for a
// live provider is still accepted, and settles. When every provider shared
// one queue, /record answered it 503.
func TestDeadOriginBacklogRefusesNoLiveRecord(t *testing.T) {
	dead, _ := deadOrigin(t, nil)
	ob, sb := leafOrigin(t, "b.example")
	p := NewPeer("peer-a", 0)
	p.maxPending = 4
	p.SignUp("a.example", dead.URL)
	p.SignUp("b.example", sb.URL)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	for i := 0; i < 4; i++ {
		if code := postRecord(t, srv.URL, unsignedRecord("a.example", i)); code != http.StatusAccepted {
			t.Fatalf("a record %d: /record answered %d", i, code)
		}
	}
	if _, err := p.Flush(dead.URL); err == nil {
		t.Fatal("flush to a 503 origin succeeded")
	}
	if code := postRecord(t, srv.URL, unsignedRecord("a.example", 4)); code != http.StatusServiceUnavailable {
		t.Errorf("a record past a's cap: /record answered %d, want 503", code)
	}
	if code := postRecord(t, srv.URL, viewRecord(t, ob, 200, "b-0")); code != http.StatusAccepted {
		t.Fatalf("b record beside a full a lane: /record answered %d, want 202", code)
	}
	if n, err := p.Flush(sb.URL); err != nil || n != 1 {
		t.Fatalf("flush b = %d, %v; want 1, nil", n, err)
	}
	if acct := ob.AccountingFor("peer-a"); acct.CreditedBytes != 200 || acct.Rejected != 0 {
		t.Errorf("b credited %d, rejected %d; want 200, 0", acct.CreditedBytes, acct.Rejected)
	}
	if got := len(laneLeaves(p, "a.example")); got != 4 {
		t.Errorf("a's lane holds %d records, want 4", got)
	}
	if got := p.DroppedRecords(); got != 1 {
		t.Errorf("dropped = %d, want 1 (a's fifth record)", got)
	}
}

// TestLanesRestartIndependently: a full lane behind a dead origin and a
// live lane each come back from CloseRecordSpool and AttachRecordSpool with
// their leaves in order. The live lane then settles exactly once, across a
// second restart, and the dead one stays queued.
func TestLanesRestartIndependently(t *testing.T) {
	dead, _ := deadOrigin(t, nil)
	ob, sb := leafOrigin(t, "b.example")
	boot := func(dir string) *Peer {
		p := NewPeer("peer-a", 0)
		p.maxPending = 3
		p.SignUp("a.example", dead.URL)
		p.SignUp("b.example", sb.URL)
		if err := p.AttachRecordSpool(dir); err != nil {
			t.Fatal(err)
		}
		return p
	}
	dir := t.TempDir()
	p := boot(dir)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	var aRecs, bRecs []UsageRecord
	for i := 0; i < 3; i++ {
		aRecs = append(aRecs, unsignedRecord("a.example", i))
		bRecs = append(bRecs, viewRecord(t, ob, 100, fmt.Sprintf("b-%d", i)))
		for _, rec := range []UsageRecord{aRecs[i], bRecs[i]} {
			if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
				t.Fatalf("/record answered %d to %+v", code, rec)
			}
		}
	}
	aLeaves, bLeaves := leavesOf(aRecs...), leavesOf(bRecs...)
	if _, err := p.Flush(dead.URL); err == nil {
		t.Fatal("flush to a 503 origin succeeded")
	}
	p.CloseRecordSpool()

	p2 := boot(dir)
	for provider, want := range map[string][]string{"a.example": aLeaves, "b.example": bLeaves} {
		if got := laneLeaves(p2, provider); !slices.Equal(got, want) {
			t.Errorf("%s's lane after the restart = %q, want %q", provider, got, want)
		}
	}
	if n, err := p2.Flush(sb.URL); err != nil || n != 3 {
		t.Fatalf("flush b after the restart = %d, %v; want 3, nil", n, err)
	}
	p2.CloseRecordSpool()

	p3 := boot(dir)
	t.Cleanup(p3.CloseRecordSpool)
	if n, err := p3.Flush(sb.URL); err != nil || n != 0 {
		t.Errorf("flush b after a second restart = %d, %v; want 0, nil", n, err)
	}
	if acct := ob.AccountingFor("peer-a"); acct.CreditedBytes != 300 || acct.Rejected != 0 {
		t.Errorf("b credited %d, rejected %d; want 300, 0", acct.CreditedBytes, acct.Rejected)
	}
	if got := laneLeaves(p3, "a.example"); !slices.Equal(got, aLeaves) {
		t.Errorf("a's lane after the second restart = %q, want %q", got, aLeaves)
	}
}

// TestFailedFlushShedsOnlyItsLane: with the cap at 2, a record lands in a's
// lane while a's flush is out, and the upload fails. The requeue sheds a's
// oldest record, from a's lane and from the spool; b's full lane loses
// nothing.
func TestFailedFlushShedsOnlyItsLane(t *testing.T) {
	var peerURL string
	dead, _ := deadOrigin(t, func() {
		// Not postRecord: this runs on the server's goroutine. A lost post
		// shows in the lane check below.
		if resp, err := http.Post(peerURL+"/record", "text/plain", recordBody(unsignedRecord("a.example", 2))); err == nil {
			resp.Body.Close()
		}
	})
	p := NewPeer("peer-a", 0)
	p.maxPending = 2
	p.SignUp("a.example", dead.URL)
	p.SignUp("b.example", "http://127.0.0.1:1")
	dir := t.TempDir()
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	peerURL = srv.URL
	for _, rec := range []UsageRecord{unsignedRecord("a.example", 0), unsignedRecord("b.example", 0),
		unsignedRecord("a.example", 1), unsignedRecord("b.example", 1)} {
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("/record answered %d to %+v", code, rec)
		}
	}
	if _, err := p.Flush(dead.URL); err == nil {
		t.Fatal("flush to a 503 origin succeeded")
	}
	want := map[string][]string{
		"a.example": leavesOf(unsignedRecord("a.example", 1), unsignedRecord("a.example", 2)),
		"b.example": leavesOf(unsignedRecord("b.example", 0), unsignedRecord("b.example", 1)),
	}
	var all []string
	for provider, leaves := range want {
		if got := laneLeaves(p, provider); !slices.Equal(got, leaves) {
			t.Errorf("%s's lane = %q, want %q", provider, got, leaves)
		}
		all = append(all, leaves...)
	}
	if got := p.DroppedRecords(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, spoolFileName))
	if err != nil {
		t.Fatal(err)
	}
	spooled := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	sort.Strings(spooled)
	sort.Strings(all)
	if !slices.Equal(spooled, all) {
		t.Errorf("spool = %q, want the four queued leaves %q", spooled, all)
	}
}

// TestSpoolRoutesByProvider: a spool in the one-file format, its leaves for
// two providers interleaved, attaches before any sign-up. Each provider's
// leaves land in its own lane in order, and each lane then settles at its
// provider's origin.
func TestSpoolRoutesByProvider(t *testing.T) {
	oa, sa := leafOrigin(t, "a.example")
	ob, sb := leafOrigin(t, "b.example")
	var aLeaves, bLeaves []string
	var spool strings.Builder
	for i := 0; i < 3; i++ {
		ab := leavesOf(viewRecord(t, oa, 100, fmt.Sprintf("a-%d", i)), viewRecord(t, ob, 200, fmt.Sprintf("b-%d", i)))
		aLeaves, bLeaves = append(aLeaves, ab[0]), append(bLeaves, ab[1])
		spool.WriteString(ab[0] + "\n" + ab[1] + "\n")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spoolFileName), []byte(spool.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPeer("peer-a", 0)
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	for provider, want := range map[string][]string{"a.example": aLeaves, "b.example": bLeaves} {
		if got := laneLeaves(p, provider); !slices.Equal(got, want) {
			t.Errorf("%s's lane = %q, want %q", provider, got, want)
		}
	}
	p.SignUp("a.example", sa.URL)
	p.SignUp("b.example", sb.URL)
	for _, c := range []struct {
		url    string
		o      *Origin
		credit int64
	}{{sa.URL, oa, 300}, {sb.URL, ob, 600}} {
		if n, err := p.Flush(c.url); err != nil || n != 3 {
			t.Errorf("flush %s = %d, %v; want 3, nil", c.url, n, err)
		}
		if acct := c.o.AccountingFor("peer-a"); acct.CreditedBytes != c.credit || acct.Rejected != 0 {
			t.Errorf("%s credited %d, rejected %d; want %d, 0", c.url, acct.CreditedBytes, acct.Rejected, c.credit)
		}
	}
}

// TestProvidersAtOneOriginFlushAsTwoLanes: two providers signed up at one
// URL flush as two batch sequences, one upload each, and each failure closes
// its own lane's gate, so the next flush sends nothing.
func TestProvidersAtOneOriginFlushAsTwoLanes(t *testing.T) {
	dead, requests := deadOrigin(t, nil)
	p := NewPeer("peer-a", 0)
	now := time.Now()
	p.SetClock(func() time.Time { return now })
	p.FlushBackoff = faults.Policy{Base: time.Second, Max: time.Second, Jitter: -1}
	p.SignUp("a.example", dead.URL)
	p.SignUp("b.example", dead.URL)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	for _, rec := range []UsageRecord{unsignedRecord("a.example", 0), unsignedRecord("b.example", 0)} {
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("/record answered %d to %+v", code, rec)
		}
	}
	if n, err := p.Flush(dead.URL); err == nil || errors.Is(err, ErrFlushDeferred) || n != 0 {
		t.Fatalf("first flush = %d, %v; want 0 and the uploads' failure", n, err)
	}
	if got := requests.Load(); got != 2 {
		t.Errorf("the origin saw %d uploads, want 2 (one per lane)", got)
	}
	if n, err := p.Flush(dead.URL); !errors.Is(err, ErrFlushDeferred) || n != 0 {
		t.Errorf("second flush = %d, %v; want 0, ErrFlushDeferred", n, err)
	}
	if got := requests.Load(); got != 2 {
		t.Errorf("the origin saw %d uploads after the deferred flush, want 2", got)
	}
	if got := p.PendingRecords(); got != 2 {
		t.Errorf("%d records queued, want 2", got)
	}
}

// TestSettledBatchLeavesTheRestSpooled: a lane too large for one upload
// goes up as several batches. When the first settles and the second fails,
// the spool still holds every leaf of the unsettled rest, in order.
func TestSettledBatchLeavesTheRestSpooled(t *testing.T) {
	var uploads atomic.Int32
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if uploads.Add(1) > 1 {
			http.Error(w, "down", http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(origin.Close)
	p := NewPeer("peer-a", 0)
	p.SignUp("a.example", origin.URL)
	dir := t.TempDir()
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	page := strings.Repeat("x", 1_000_000) // nine of these pass maxBatchBody
	for i := 0; i < 9; i++ {
		rec := UsageRecord{Provider: "a.example", PeerID: "peer-a", Page: page, Bytes: 1, Nonce: fmt.Sprint(i)}
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("record %d: /record answered %d", i, code)
		}
	}
	n, err := p.Flush(origin.URL)
	if err == nil || n == 0 || n == 9 {
		t.Fatalf("flush = %d, %v; want some batch settled, then a failure", n, err)
	}
	rest := laneLeaves(p, "a.example")
	if len(rest) != 9-n {
		t.Fatalf("%d records queued after settling %d, want %d", len(rest), n, 9-n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, spoolFileName))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(rest, "\n") + "\n"; string(raw) != want {
		t.Errorf("spool holds %d bytes, want the %d unsettled leaves (%d bytes)", len(raw), len(rest), len(want))
	}
}

// TestLanesConcurrent: records for two providers arrive from several
// goroutines while both origins are flushed in a loop. Every record settles
// exactly once, at its own provider's origin.
func TestLanesConcurrent(t *testing.T) {
	oa, sa := leafOrigin(t, "a.example")
	ob, sb := leafOrigin(t, "b.example")
	p := NewPeer("peer-a", 0)
	p.SignUp("a.example", sa.URL)
	p.SignUp("b.example", sb.URL)
	if err := p.AttachRecordSpool(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	const senders, each = 4, 20
	var leaves [senders][]string
	for s := range leaves {
		for i := 0; i < each; i++ {
			o, amount := oa, int64(100)
			if i%2 == 1 {
				o, amount = ob, 200
			}
			leaves[s] = append(leaves[s], leavesOf(viewRecord(t, o, amount, fmt.Sprintf("%d-%d", s, i)))...)
		}
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, url := range []string{sa.URL, sb.URL} {
				if _, err := p.Flush(url); err != nil {
					t.Errorf("flush %s: %v", url, err)
				}
			}
		}
	}()
	done := make(chan struct{}, senders)
	for s := range leaves {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, leaf := range leaves[s] {
				resp, err := http.Post(srv.URL+"/record", "text/plain", strings.NewReader(leaf))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("/record answered %d", resp.StatusCode)
				}
			}
		}()
	}
	for range senders {
		<-done
	}
	close(stop)
	<-flushed
	for _, url := range []string{sa.URL, sb.URL} {
		if _, err := p.Flush(url); err != nil {
			t.Fatalf("last flush %s: %v", url, err)
		}
	}
	if got := p.PendingRecords(); got != 0 {
		t.Errorf("%d records still queued", got)
	}
	half := int64(senders * each / 2)
	if acct := oa.AccountingFor("peer-a"); acct.CreditedBytes != 100*half || acct.Rejected != 0 {
		t.Errorf("a credited %d, rejected %d; want %d, 0", acct.CreditedBytes, acct.Rejected, 100*half)
	}
	if acct := ob.AccountingFor("peer-a"); acct.CreditedBytes != 200*half || acct.Rejected != 0 {
		t.Errorf("b credited %d, rejected %d; want %d, 0", acct.CreditedBytes, acct.Rejected, 200*half)
	}
}
