package nocdn

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
)

// DefaultMaxPendingRecords caps each provider's record lane. A dead origin
// must not grow its lane without bound on a memory-constrained home box;
// beyond the cap the oldest records are shed (they are also the first to
// exceed the origin's nonce horizon anyway).
const DefaultMaxPendingRecords = 4096

// maxRecordBody caps a POST /record body, and so the leaf queued from it.
// JSON escaping at most sextuples a leaf's bytes, so any one leaf uploads
// well under maxBatchBody.
const maxRecordBody = 1 << 20

// ErrFlushDeferred is returned by Flush while the backoff gate a lane's
// previous failed upload closed is still closed; that lane sent nothing.
var ErrFlushDeferred = errors.New("nocdn: record flush deferred by backoff")

// ErrUnknownOrigin is returned by Flush for a URL at which no provider
// signed this peer up: nothing was sent, and the lanes, their gates and the
// spool are as they were.
var ErrUnknownOrigin = errors.New("nocdn: no provider signed up at this origin")

// recordLane is the peer's record half. recordsMu guards every provider's
// lane, the cap and the spool, and no serve takes it. One spool holds every
// lane's leaves.
type recordLane struct {
	recordsMu  sync.Mutex
	lanes      map[string]*lane // by provider, made on its first leaf
	maxPending int              // caps each lane's records
	spool      *recordSpool     // set by AttachRecordSpool

	droppedRecords atomic.Int64
}

// lane is one provider's queued leaves and its backoff gate: its failed
// uploads in a row, and the time before which Flush sends it nothing.
type lane struct {
	records  []string // leaves (LeafBytes), oldest first
	failures int
	next     time.Time
}

// laneLocked returns provider's lane, making it if need be; recordsMu must
// be held.
func (p *Peer) laneLocked(provider string) *lane {
	if p.lanes[provider] == nil {
		p.lanes[provider] = &lane{}
	}
	return p.lanes[provider]
}

// requeueLocked puts leaves back at the head of l and sheds its oldest
// records past the cap, returning how many it shed; recordsMu must be held.
func (p *Peer) requeueLocked(l *lane, leaves []string) int {
	l.records = append(leaves, l.records...)
	over := len(l.records) - p.maxPending
	if over <= 0 {
		return 0
	}
	l.records = append([]string(nil), l.records[over:]...)
	p.droppedRecords.Add(int64(over))
	return over
}

// rewriteSpoolLocked compacts the spool to held, a flush's unsettled rest,
// then every lane's records, each in order; recordsMu must be held.
func (p *Peer) rewriteSpoolLocked(held []string) {
	all := held[:len(held):len(held)]
	for _, l := range p.lanes {
		all = append(all, l.records...)
	}
	p.spool.rewrite(all)
}

// PendingRecords returns how many usage records await upload.
func (p *Peer) PendingRecords() int {
	p.recordsMu.Lock()
	defer p.recordsMu.Unlock()
	n := 0
	for _, l := range p.lanes {
		n += len(l.records)
	}
	return n
}

// DroppedRecords returns how many usage records were shed by the lane cap.
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
	l := p.laneLocked(rec.Provider)
	if len(l.records) >= p.maxPending {
		p.recordsMu.Unlock()
		p.droppedRecords.Add(1)
		p.metrics.Inc("nocdn.peer.records_rejected")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "record queue full", http.StatusServiceUnavailable)
		return
	}
	l.records = append(l.records, leaf)
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

// Flush uploads the lane of each provider signed up at originURL,
// returning how many records were settled; the other lanes stay queued and
// spooled, in order. A URL no provider signed up at is refused with
// ErrUnknownOrigin before anything is touched. A lane goes up as
// consecutive Merkle-committed batches, each under the origin's body limit,
// so no size of queue is ever refused whole. A batch is cleared only on a
// settled decision — 2xx, or the origin's 400 "rejected or replayed, do not
// retry"; settlement disputes are the provider's ledger, not the peer's
// queue. Anything else (transport failure, 5xx, a 415 from an origin that
// wants another batch shape, or a 404/405/408/429 from a mis-routed URL or a
// proxy) decides nothing: the lane's unsettled rest is requeued (capped,
// oldest shed first) and its backoff gate closes, so Flush sends it nothing
// (ErrFlushDeferred) until the gate expires. No lane's gate defers another.
func (p *Peer) Flush(originURL string) (settled int, err error) {
	origin := strings.TrimSuffix(originURL, "/")
	providers := p.providersAt(origin)
	if len(providers) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrUnknownOrigin, originURL)
	}
	for _, provider := range providers {
		n, lerr := p.flushLane(provider, origin)
		settled, err = settled+n, errors.Join(err, lerr)
	}
	return settled, err
}

// flushLane uploads provider's lane to origin, a URL with its trailing '/'
// trimmed.
func (p *Peer) flushLane(provider, origin string) (int, error) {
	now := p.now()
	p.recordsMu.Lock()
	l := p.laneLocked(provider)
	if now.Before(l.next) {
		p.recordsMu.Unlock()
		return 0, ErrFlushDeferred
	}
	batch := l.records
	l.records = nil
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
		// The flush span's context rides the upload, so the origin's batch
		// settlement span parents under this flush cycle.
		var code int
		if code, err = p.callOrigin(context.TODO(), sp, origin, http.MethodPost, "/usage/batch", body, nil); err != nil {
			break
		}
		if code/100 != 2 && code != http.StatusBadRequest {
			err = fmt.Errorf("nocdn: usage upload status %d", code)
			break
		}
		batch = batch[n:]
		settled += n
		p.recordsMu.Lock()
		l.failures, l.next = 0, time.Time{}
		// The batch is settled: compact the spool down to the unsent rest
		// and whatever else is queued, so a restart doesn't re-upload it.
		// Runs under recordsMu so no handleRecord append can slip between
		// the queue snapshot and the file swap.
		p.rewriteSpoolLocked(batch)
		p.recordsMu.Unlock()
	}
	p.metrics.Observe("nocdn.peer.flush_seconds", time.Since(start).Seconds())
	sp.SetLabel("uploaded", strconv.Itoa(settled))
	if err == nil {
		return settled, nil
	}
	sp.SetError(err)
	// Requeue the unsettled rest ahead of what the lane took meanwhile,
	// shed its oldest overflow, and close its backoff gate.
	p.recordsMu.Lock()
	over := p.requeueLocked(l, batch)
	l.failures++
	l.next = now.Add(p.FlushBackoff.Delay(l.failures))
	if over > 0 {
		// Only a shed changes what should replay on boot — a plain requeue
		// leaves the spool contents correct as-is.
		p.rewriteSpoolLocked(nil)
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

// AttachRecordSpool makes the peer's record lanes durable under dir
// (typically the same -cache-dir as the disk tier): previously spooled
// records are requeued at the head of their provider's lane, unchecked
// against the current sign-ups, and every accepted record is spooled until
// its batch settles. A spool holding a complete line that is not a leaf
// fails with errStateFormat, and the file and the lanes stay as they were.
func (p *Peer) AttachRecordSpool(dir string) error {
	spool, leaves, err := openRecordSpool(dir, p.metrics)
	if err != nil {
		return err
	}
	spooled := make(map[string][]string)
	for _, leaf := range leaves {
		provider := leafProvider(leaf)
		spooled[provider] = append(spooled[provider], leaf)
	}
	p.recordsMu.Lock()
	p.spool = spool
	for provider, leaves := range spooled {
		p.requeueLocked(p.laneLocked(provider), leaves)
	}
	// Compact immediately (still under recordsMu, ordered with appends):
	// drops any torn tail and the over-cap shed.
	p.rewriteSpoolLocked(nil)
	p.recordsMu.Unlock()
	return nil
}

// CloseRecordSpool persists every lane and detaches the spool.
func (p *Peer) CloseRecordSpool() {
	p.recordsMu.Lock()
	p.rewriteSpoolLocked(nil)
	p.spool.close()
	p.spool = nil
	p.recordsMu.Unlock()
}
