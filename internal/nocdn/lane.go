package nocdn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
)

// DefaultMaxPendingRecords caps the usage-record queue. A dead origin must
// not grow the pending queue without bound on a memory-constrained home
// box; beyond the cap the oldest records are shed (they are also the first
// to exceed the origin's nonce horizon anyway).
const DefaultMaxPendingRecords = 4096

// maxRecordBody caps a POST /record body, and so the leaf queued from it.
// JSON escaping at most sextuples a leaf's bytes, so any one leaf uploads
// well under maxBatchBody.
const maxRecordBody = 1 << 20

// ErrFlushDeferred is returned by Flush while the backoff gate from a
// previous failed upload to the same origin is still closed; no network
// attempt was made.
var ErrFlushDeferred = errors.New("nocdn: record flush deferred by backoff")

// ErrUnknownOrigin is returned by Flush for a URL at which no provider
// signed this peer up: nothing was sent, and the queue, the spool and the
// backoff gates are as they were.
var ErrUnknownOrigin = errors.New("nocdn: no provider signed up at this origin")

// recordLane is the peer's record half. recordsMu guards the usage-record
// queue, its cap, its spool and the flush backoff gates, and no serve takes
// it. The queue, the cap and the spool serve every origin; each origin has
// its own gate.
type recordLane struct {
	recordsMu  sync.Mutex
	records    []string     // leaves (LeafBytes), oldest first
	maxPending int          // caps len(records)
	spool      *recordSpool // set by AttachRecordSpool
	// gates holds the backoff gate of each origin whose last upload failed,
	// keyed by its URL with the trailing '/' trimmed, as SignUp stores it.
	gates map[string]flushGate

	droppedRecords atomic.Int64
}

// flushGate is one origin's backoff: its consecutive failed uploads, and
// the time before which Flush sends it nothing.
type flushGate struct {
	failures int
	next     time.Time
}

// SetMaxPendingRecords caps the usage-record queue (<= 0 restores the
// default).
func (p *Peer) SetMaxPendingRecords(n int) {
	if n <= 0 {
		n = DefaultMaxPendingRecords
	}
	p.recordsMu.Lock()
	defer p.recordsMu.Unlock()
	p.maxPending = n
}

// requeueLocked puts leaves back at the head of the queue and sheds the
// oldest records past the cap, returning how many it shed; recordsMu must
// be held.
func (p *Peer) requeueLocked(leaves []string) int {
	p.records = append(leaves, p.records...)
	over := len(p.records) - p.maxPending
	if over <= 0 {
		return 0
	}
	p.records = append([]string(nil), p.records[over:]...)
	p.droppedRecords.Add(int64(over))
	return over
}

// PendingRecords returns how many usage records await upload.
func (p *Peer) PendingRecords() int {
	p.recordsMu.Lock()
	defer p.recordsMu.Unlock()
	return len(p.records)
}

// DroppedRecords returns how many usage records were shed by the queue cap.
func (p *Peer) DroppedRecords() int64 { return p.droppedRecords.Load() }

// providersAt returns the providers SignUp registered at origin, a URL
// with its trailing '/' trimmed as SignUp stores it.
func (p *Peer) providersAt(origin string) []string {
	p.providersMu.RLock()
	defer p.providersMu.RUnlock()
	var out []string
	for name, url := range p.providers {
		if url == origin {
			out = append(out, name)
		}
	}
	return out
}

func (p *Peer) handleRecord(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readUpload(w, r, maxRecordBody)
	if !ok {
		return
	}
	// The leaf is queued, spooled and uploaded as it came. A record that
	// could never settle is refused now rather than at the origin, where it
	// would count against this peer, or sit queued until it is shed.
	leaf, rec, err := parseRecordLine(body)
	_, signed := p.originOf(rec.Provider)
	switch {
	case err != nil:
		err = fmt.Errorf("record does not travel as a leaf: %w", err)
	case rec.PeerID != p.ID:
		err = fmt.Errorf("record names peer %q, not %q", rec.PeerID, p.ID)
	case !signed:
		err = fmt.Errorf("peer is not signed up for provider %q", rec.Provider)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp := p.tracer.StartRemote("nocdn.peer", "receive_record", hpop.ExtractTraceparent(r.Header))
	sp.SetLabel("peer", p.ID)
	sp.SetLabel("provider", rec.Provider)
	defer sp.End()
	p.recordsMu.Lock()
	if len(p.records) >= p.maxPending {
		p.recordsMu.Unlock()
		p.droppedRecords.Add(1)
		p.metrics.Inc("nocdn.peer.records_rejected")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "record queue full", http.StatusServiceUnavailable)
		return
	}
	p.records = append(p.records, leaf)
	// Spooled while still holding recordsMu so the append is ordered with
	// any concurrent Flush compaction (rewrite also runs under recordsMu):
	// a record accepted during a settling flush must land after the
	// rewrite, not be erased by it or duplicated.
	p.spool.append(leaf)
	p.recordsMu.Unlock()
	w.WriteHeader(http.StatusAccepted)
}

func (p *Peer) handleFlush(w http.ResponseWriter, r *http.Request) {
	origin := r.URL.Query().Get("origin")
	if origin == "" {
		http.Error(w, "origin required", http.StatusBadRequest)
		return
	}
	n, err := p.Flush(origin)
	switch {
	case errors.Is(err, ErrUnknownOrigin):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ErrFlushDeferred):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fmt.Fprintf(w, `{"uploaded":%d}`, n)
}

// Flush uploads the queued records of the providers signed up at originURL,
// returning how many were settled; the other providers' records stay queued
// and spooled, in order. A URL no provider signed up at is refused with
// ErrUnknownOrigin before anything is touched. The records go up as
// consecutive Merkle-committed batches, each under the origin's body limit,
// so no size of queue is ever refused whole. A batch is cleared only on a
// settled decision — 2xx, or the origin's 400 "rejected or replayed, do not
// retry"; settlement disputes are the provider's ledger, not the peer's
// queue. Anything else (transport failure, 5xx, a 415 from an origin that
// wants another batch shape, or a 404/405/408/429 from a mis-routed URL or a
// proxy) decides nothing about the records: Flush stops, the unsettled rest
// is requeued (capped at the pending limit, oldest shed first) and that
// origin's backoff gate closes, so further Flush calls to it return
// ErrFlushDeferred without touching the network until it expires and a dead
// origin is never hot-retried. The gate is the origin's alone: a dead origin
// defers no other origin's flush.
func (p *Peer) Flush(originURL string) (int, error) {
	origin := strings.TrimSuffix(originURL, "/")
	providers := p.providersAt(origin)
	if len(providers) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrUnknownOrigin, originURL)
	}
	now := p.now()
	p.recordsMu.Lock()
	if now.Before(p.gates[origin].next) {
		p.recordsMu.Unlock()
		return 0, ErrFlushDeferred
	}
	batch := make([]string, 0, len(p.records))
	others := p.records[:0]
	for _, leaf := range p.records {
		if slices.Contains(providers, leafProvider(leaf)) {
			batch = append(batch, leaf)
		} else {
			others = append(others, leaf)
		}
	}
	clear(p.records[len(others):])
	p.records = others
	p.recordsMu.Unlock()
	if len(batch) == 0 {
		return 0, nil
	}
	// One span per real flush cycle (deferred and empty flushes don't
	// open spans, so a dead origin can't spam the ring via its own gate).
	sp := p.tracer.Start("nocdn.peer", "flush")
	sp.SetLabel("peer", p.ID)
	sp.SetLabel("records", strconv.Itoa(len(batch)))
	defer sp.End()
	start := time.Now()
	settled := 0
	var err error
	for len(batch) > 0 {
		var n int
		var body []byte
		if n, body, err = nextUpload(p.ID, batch); err != nil {
			break
		}
		var resp *http.Response
		if resp, err = p.postRecords(sp, origin, body); err != nil {
			break
		}
		code := resp.StatusCode
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if code/100 != 2 && code != http.StatusBadRequest {
			err = fmt.Errorf("nocdn: usage upload status %d", code)
			break
		}
		batch = batch[n:]
		settled += n
		p.recordsMu.Lock()
		delete(p.gates, origin)
		// The batch is settled: compact the spool down to the unsent rest
		// and whatever else is queued, so a restart doesn't re-upload it.
		// Runs under recordsMu so no handleRecord append can slip between
		// the queue snapshot and the file swap.
		rest := p.records
		if len(batch) > 0 {
			rest = append(batch[:len(batch):len(batch)], p.records...)
		}
		p.spool.rewrite(rest)
		p.recordsMu.Unlock()
	}
	p.metrics.Observe("nocdn.peer.flush_seconds", time.Since(start).Seconds())
	sp.SetLabel("uploaded", strconv.Itoa(settled))
	if err == nil {
		return settled, nil
	}
	sp.SetError(err)
	// Requeue the unsettled rest ahead of everything else queued, shed the
	// oldest overflow, and close this origin's backoff gate.
	p.recordsMu.Lock()
	over := p.requeueLocked(batch)
	g := p.gates[origin]
	g.failures++
	g.next = now.Add(p.FlushBackoff.Delay(g.failures))
	p.gates[origin] = g
	if over > 0 {
		// Only a shed changes what should replay on boot — a plain requeue
		// leaves the spool contents correct as-is.
		p.spool.rewrite(p.records)
	}
	p.recordsMu.Unlock()
	if over > 0 {
		// Shed records are unpaid work — surface them on the flush span and
		// as a counter, not just the lifetime drop total.
		p.metrics.Add("nocdn.peer.records_shed", float64(over))
		sp.SetLabel("shed", strconv.Itoa(over))
	}
	p.metrics.Inc("nocdn.peer.flush_failures")
	return settled, err
}

// leafProvider returns a queued leaf's provider, its field 1.
func leafProvider(leaf string) string {
	_, rest, _ := strings.Cut(leaf, "|")
	provider, _, _ := strings.Cut(rest, "|")
	return provider
}

// postRecords uploads one settlement batch to origin, a URL with its
// trailing '/' trimmed. The flush span's context
// rides the upload, so the origin's batch settlement span parents under
// this flush cycle; the goroutine carries pprof labels for the duration of
// the network round trip.
func (p *Peer) postRecords(sp *hpop.Span, origin string, body []byte) (*http.Response, error) {
	var resp *http.Response
	var err error
	pprof.Do(context.Background(), pprof.Labels("service", "nocdn.peer", "span", "flush"),
		func(ctx context.Context) {
			var req *http.Request
			req, err = http.NewRequestWithContext(ctx, http.MethodPost,
				origin+"/usage/batch", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			hpop.InjectTraceparent(req.Header, sp)
			resp, err = p.httpClient.Do(req)
		})
	return resp, err
}

// AttachRecordSpool makes the peer's usage-record queue durable under dir
// (typically the same -cache-dir as the disk tier): previously spooled
// records are requeued — flowing to the origin through the normal Flush
// path, backoff gate included — and every accepted record is spooled until
// its batch settles. A requeued leaf is not checked against the current
// sign-ups: it waits for a Flush to its provider's origin. A spool holding
// a complete line that is not a leaf fails with errStateFormat, and the
// file and the queue stay as they were.
func (p *Peer) AttachRecordSpool(dir string) error {
	spool, leaves, err := openRecordSpool(dir, p.metrics)
	if err != nil {
		return err
	}
	p.recordsMu.Lock()
	p.spool = spool
	if len(leaves) > 0 {
		p.requeueLocked(leaves)
	}
	// Compact immediately (still under recordsMu, ordered with appends):
	// drops any torn tail and the over-cap shed.
	spool.rewrite(p.records)
	p.recordsMu.Unlock()
	return nil
}

// CloseRecordSpool persists the current queue and detaches the spool.
func (p *Peer) CloseRecordSpool() {
	p.recordsMu.Lock()
	spool := p.spool
	p.spool = nil
	spool.rewrite(p.records)
	spool.close()
	p.recordsMu.Unlock()
}
