package nocdn

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// breakJournal closes the journal's file under its lock, so the next write
// to it fails as a dead disk's would.
func breakJournal(o *Origin) {
	o.wal.mu.Lock()
	o.wal.f.Close()
	o.wal.mu.Unlock()
}

// TestSettleFailsClosedOnJournalError: a settlement whose journal write
// fails is not acknowledged. It credits nothing live, leaves its nonces
// unconsumed, and the failed journal refuses the retry before any replay
// check; after a restart the same batch credits exactly once.
func TestSettleFailsClosedOnJournalError(t *testing.T) {
	dir := t.TempDir()
	opts := WALOptions{Fsync: FsyncAlways}
	o := walOrigin(t, dir, opts, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	if n := settlePerPeer(o, []UsageRecord{signedRecord(t, w, peer, 100, "nonce-1")}); n != 1 {
		t.Fatalf("settled %d, want 1", n)
	}
	breakJournal(o)
	rec := signedRecord(t, w, peer, 50, "nonce-2")
	b := NewRecordBatch(peer, []UsageRecord{rec})
	n, err := o.SettleBatch(b)
	if n != 0 || !errors.Is(err, errJournalFailed) {
		t.Errorf("settle on a failed journal = %d, %v; want 0 and the journal's error", n, err)
	}
	if got := o.AccountingFor(peer).CreditedBytes; got != 100 {
		t.Errorf("live credit = %d, want 100", got)
	}
	seen := o.nonces.Export()
	for _, nonce := range []string{rec.KeyID + "|" + rec.Nonce, "batch|" + b.Root} {
		if _, ok := seen[nonce]; ok {
			t.Errorf("nonce %q consumed by an unjournaled commit", nonce)
		}
	}
	if n, err := o.SettleBatch(b); n != 0 || !errors.Is(err, errJournalFailed) {
		t.Errorf("retry on the failed journal = %d, %v; want 0 and the journal's error", n, err)
	}

	o2, _ := recoverOrigin(t, dir, opts)
	if got := o2.AccountingFor(peer).CreditedBytes; got != 100 {
		t.Fatalf("credit after recovery = %d, want 100", got)
	}
	if n, err := o2.SettleBatch(b); n != 1 || err != nil {
		t.Fatalf("retry after recovery = %d, %v; want 1 credited", n, err)
	}
	if n, err := o2.SettleBatch(b); n != 0 || !errors.Is(err, ErrBadBatch) {
		t.Errorf("second retry after recovery = %d, %v; want a replay", n, err)
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != 150 {
		t.Errorf("credit after the retry = %d, want 150", got)
	}
}

// TestJournalFailureUnderConcurrentSettles: settlers racing a journal that
// fails mid-run each get an ack or the journal's error, and nothing else.
// After a restart every acked batch is a replay, and retrying the rest
// credits each batch exactly once.
func TestJournalFailureUnderConcurrentSettles(t *testing.T) {
	dir := t.TempDir()
	opts := WALOptions{Fsync: FsyncAlways}
	o := walOrigin(t, dir, opts, 8)
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	const workers, each = 4, 16
	batches := make([]RecordBatch, workers*each)
	for i := range batches {
		batches[i] = NewRecordBatch(peer, []UsageRecord{signedRecord(t, w, peer, 1, fmt.Sprintf("n%d", i))})
	}
	acked := make([]bool, len(batches))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * each; i < (g+1)*each; i++ {
				if i == each/2 {
					breakJournal(o)
				}
				n, err := o.SettleBatch(batches[i])
				switch {
				case n == 1 && err == nil:
					acked[i] = true
				case n != 0 || !errors.Is(err, errJournalFailed):
					t.Errorf("batch %d = %d, %v; want an ack or the journal's error", i, n, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if !acked[0] || acked[each-1] {
		t.Fatalf("acks %v: want the first batch acked and the break to refuse the rest of its run", acked)
	}

	o2, _ := recoverOrigin(t, dir, opts)
	for i, b := range batches {
		n, err := o2.SettleBatch(b)
		if acked[i] && !errors.Is(err, ErrBadBatch) {
			t.Errorf("acked batch %d after recovery = %d, %v; want a replay", i, n, err)
		}
		if err != nil && !errors.Is(err, ErrBadBatch) {
			t.Errorf("batch %d after recovery = %d, %v", i, n, err)
		}
	}
	if got := o2.AccountingFor(peer).CreditedBytes; got != int64(len(batches)) {
		t.Errorf("credit after every batch was retried = %d, want %d", got, len(batches))
	}
}

// TestFlushKeepsRecordsOnJournalFailure: over HTTP, an origin whose journal
// failed answers /usage/batch 503 with Retry-After, and a real peer keeps
// the record queued and spooled.
func TestFlushKeepsRecordsOnJournalFailure(t *testing.T) {
	o := walOrigin(t, t.TempDir(), WALOptions{Fsync: FsyncAlways}, 8)
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	w, err := o.AssignWrapper("p", "c")
	if err != nil {
		t.Fatal(err)
	}
	peerID := anyPeer(w)
	p := NewPeer(peerID, 1<<20)
	p.SignUp("x", originSrv.URL)
	spoolDir := t.TempDir()
	if err := p.AttachRecordSpool(spoolDir); err != nil {
		t.Fatal(err)
	}
	defer p.CloseRecordSpool()
	peerSrv := httptest.NewServer(p.Handler())
	defer peerSrv.Close()

	if code := postRecord(t, peerSrv.URL, signedRecord(t, w, peerID, 100, "n1")); code != http.StatusAccepted {
		t.Fatalf("/record answered %d", code)
	}
	if n, err := p.Flush(originSrv.URL); n != 1 || err != nil {
		t.Fatalf("flush on a working journal = %d, %v", n, err)
	}
	breakJournal(o)
	rec := signedRecord(t, w, peerID, 50, "n2")
	if code := postRecord(t, peerSrv.URL, rec); code != http.StatusAccepted {
		t.Fatalf("/record answered %d", code)
	}
	n, err := p.Flush(originSrv.URL)
	if n != 0 || err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("flush on a failed journal = %d, %v; want 0 and a 503", n, err)
	}
	if got := p.PendingRecords(); got != 1 {
		t.Errorf("records pending = %d, want 1", got)
	}
	spooled, err := os.ReadFile(filepath.Join(spoolDir, spoolFileName))
	if err != nil || !bytes.Contains(spooled, rec.LeafBytes()) {
		t.Errorf("spool = %q (%v), want the unsettled leaf", spooled, err)
	}

	_, body, err := nextUpload(peerID, []string{string(rec.LeafBytes())})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(originSrv.URL+"/usage/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("batch on a failed journal answered %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
