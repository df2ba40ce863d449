package nocdn

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"hpop/internal/hpop"
)

// Audit defaults.
const (
	// DefaultAuditThreshold is the deviation score above which a peer is
	// flagged. Honest peers sit near zero (small byte-claim z-score, no
	// rejects); a record-inflating or replaying peer clears 2 quickly
	// because its reject rate alone contributes up to 2.
	DefaultAuditThreshold = 2.0
	// DefaultAuditMinRecords is how many records a peer must have submitted
	// before its score can flag it — two records are not a statistic.
	DefaultAuditMinRecords = 3
	// auditMaxOffending caps how many offending trace IDs are retained per
	// peer; enough to investigate, bounded so a reject storm can't grow the
	// auditor without limit.
	auditMaxOffending = 8
)

// welford accumulates mean and variance online (Welford's algorithm), so the
// auditor never stores per-record samples.
type welford struct {
	n    int64
	mean float64
	m2   float64
}

func (w *welford) observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// stddev returns the population standard deviation (zero below two samples).
func (w *welford) stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// peerAudit is the per-peer settlement statistics the auditor maintains.
type peerAudit struct {
	records int64
	rejects int64
	replays int64
	bytes   int64 // claimed bytes, pre-verification — inflation registers here
	stats   welford
	score   float64
	flagged bool
	// offending holds trace IDs of rejected records (bounded), so a flagged
	// peer's misbehaviour links straight back to the page views involved.
	offending []string
}

// Auditor grows the origin's binary anomaly factor into a settlement audit
// pipeline: it observes every uploaded usage record before verification,
// keeps per-peer rolling statistics (records, claimed bytes, rejects, replay
// hits, byte-claim mean/stddev), scores each peer's deviation from the peer
// population, and flags peers whose score crosses the threshold — emitting
// an audit span carrying the offending records' trace IDs, so a flag links
// directly to the distributed traces that triggered it.
//
// The deviation score is
//
//	z = |peerMeanBytes - populationMeanBytes| / denom + 2 * rejectRate
//
// where denom is the population stddev floored at a quarter of the
// population mean (so honest variation between peers of different sizes
// never explodes the z term) and rejectRate is rejects/records. A peer
// inflating byte claims moves both terms; a replaying peer moves the second.
type Auditor struct {
	// Threshold is the flagging score (<= 0 means DefaultAuditThreshold).
	Threshold float64
	// MinRecords gates flagging until a peer has a sample
	// (<= 0 means DefaultAuditMinRecords).
	MinRecords int
	// OnFlag, when set, is invoked (outside the auditor's lock) each time a
	// peer is newly flagged — the origin uses it to eject the peer from
	// future wrapper maps immediately instead of waiting for the next probe.
	OnFlag func(peerID string)

	mu    sync.Mutex
	peers map[string]*peerAudit
	pop   welford

	metrics *hpop.Metrics
	tracer  *hpop.Tracer
}

// NewAuditor creates an empty audit pipeline.
func NewAuditor() *Auditor {
	return &Auditor{peers: make(map[string]*peerAudit)}
}

// SetMetrics wires the nocdn.audit.* exports.
func (a *Auditor) SetMetrics(m *hpop.Metrics) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.metrics = m
}

// SetTracer wires the tracer audit spans are emitted into.
func (a *Auditor) SetTracer(t *hpop.Tracer) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tracer = t
}

func (a *Auditor) threshold() float64 {
	if a.Threshold > 0 {
		return a.Threshold
	}
	return DefaultAuditThreshold
}

func (a *Auditor) minRecords() int64 {
	if a.MinRecords > 0 {
		return int64(a.MinRecords)
	}
	return DefaultAuditMinRecords
}

// Observe feeds one uploaded usage record and its settlement outcome
// (nil = credited; replayed reports nonce reuse) into the audit statistics,
// rescoring the peer. Nil-receiver safe, like the rest of the observability
// plumbing.
func (a *Auditor) Observe(rec UsageRecord, settleErr error, replayed bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	pa := a.peers[rec.PeerID]
	if pa == nil {
		pa = &peerAudit{}
		a.peers[rec.PeerID] = pa
	}
	pa.records++
	pa.bytes += rec.Bytes
	claimed := float64(rec.Bytes)
	pa.stats.observe(claimed)
	a.pop.observe(claimed)
	a.metrics.Inc("nocdn.audit.records")
	a.metrics.Observe("nocdn.audit.claimed_bytes", claimed)
	if settleErr != nil {
		pa.rejects++
		a.metrics.Inc("nocdn.audit.rejects")
		if replayed {
			pa.replays++
			a.metrics.Inc("nocdn.audit.replays")
		}
		if len(pa.offending) < auditMaxOffending {
			if tc, err := hpop.ParseTraceparent(rec.Traceparent); err == nil {
				pa.offending = append(pa.offending, tc.TraceID.String())
			}
		}
	}
	// Every record moves the population statistics, so EVERY peer's score is
	// stale, not just the submitter's. Rescoring them all keeps the verdict
	// independent of upload order: a peer whose inflated claims settle before
	// the honest population exists scores low against itself at that moment,
	// but is re-judged — and flagged — as soon as honest records arrive.
	type flaggedPeer struct {
		id        string
		score     float64
		offending []string
	}
	var newly []flaggedPeer
	for id, p := range a.peers {
		p.score = a.scoreLocked(p)
		a.metrics.Set("nocdn.audit.peer."+id+".deviation", p.score)
		if !p.flagged && p.records >= a.minRecords() && p.score > a.threshold() {
			p.flagged = true
			a.metrics.Inc("nocdn.audit.flagged")
			newly = append(newly, flaggedPeer{id, p.score, append([]string(nil), p.offending...)})
		}
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i].id < newly[j].id })
	tracer := a.tracer
	a.mu.Unlock()

	for _, fp := range newly {
		// The audit span carries the evidence: which peer, what score, and
		// the trace IDs of the offending records, so an operator can pull
		// each implicated page view's full tree from /debug/trace.
		sp := tracer.Start("nocdn.audit", "peer_flagged")
		sp.SetLabel("peer", fp.id)
		sp.SetLabel("score", strconv.FormatFloat(fp.score, 'g', 4, 64))
		for i, id := range fp.offending {
			sp.SetLabel(fmt.Sprintf("offending_trace_%d", i), id)
		}
		sp.End()
		if a.OnFlag != nil {
			a.OnFlag(fp.id)
		}
	}
}

// FlagTampered flags a peer on direct evidence — a sampled leaf of a
// Merkle-committed settlement batch, uploaded in the peer's name, that
// failed verification. No statistics are needed: the root commits to the
// exact record bytes, so a non-verifying leaf cannot be transport
// corruption. The upload itself is not authenticated, so the evidence is
// against whoever sent the batch under that name. Fires OnFlag exactly like
// a score-based flag. Nil-receiver safe.
func (a *Auditor) FlagTampered(peerID string, cause error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	pa := a.peers[peerID]
	if pa == nil {
		pa = &peerAudit{}
		a.peers[peerID] = pa
	}
	already := pa.flagged
	pa.flagged = true
	if !already {
		a.metrics.Inc("nocdn.audit.flagged")
		a.metrics.Inc("nocdn.audit.tamper_flags")
	}
	tracer := a.tracer
	onFlag := a.OnFlag
	a.mu.Unlock()
	if already {
		return
	}
	sp := tracer.Start("nocdn.audit", "peer_flagged")
	sp.SetLabel("peer", peerID)
	sp.SetLabel("cause", "merkle_sample")
	if cause != nil {
		sp.SetError(cause)
	}
	sp.End()
	if onFlag != nil {
		onFlag(peerID)
	}
}

// merge folds another Welford accumulator into this one exactly (Chan et
// al.'s parallel variance combination): the result is identical to having
// observed both sample streams, which is what lets settlement batches
// journal their audit contribution as an (n, mean, m2) delta and replay it
// without per-record fidelity loss.
func (w *welford) merge(n int64, mean, m2 float64) {
	if n <= 0 {
		return
	}
	if w.n == 0 {
		w.n, w.mean, w.m2 = n, mean, m2
		return
	}
	total := w.n + n
	delta := mean - w.mean
	w.mean += delta * float64(n) / float64(total)
	w.m2 += m2 + delta*delta*float64(w.n)*float64(n)/float64(total)
	w.n = total
}

// welfordState is a welford accumulator's persisted form.
type welfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// peerAuditState is one peer's audit row in persisted form (full fidelity:
// a restored auditor scores peers identically to the pre-crash one).
type peerAuditState struct {
	PeerID    string       `json:"peerId"`
	Records   int64        `json:"records"`
	Rejects   int64        `json:"rejects"`
	Replays   int64        `json:"replays"`
	Bytes     int64        `json:"bytes"`
	Stats     welfordState `json:"stats"`
	Flagged   bool         `json:"flagged,omitempty"`
	Offending []string     `json:"offending,omitempty"`
}

// auditState is the auditor's full persisted form.
type auditState struct {
	Pop   welfordState     `json:"pop"`
	Peers []peerAuditState `json:"peers"`
}

// exportState captures the auditor for a snapshot, peers sorted by ID so
// snapshot bytes are deterministic. Nil-receiver safe.
func (a *Auditor) exportState() auditState {
	if a == nil {
		return auditState{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := auditState{
		Pop:   welfordState{N: a.pop.n, Mean: a.pop.mean, M2: a.pop.m2},
		Peers: make([]peerAuditState, 0, len(a.peers)),
	}
	for id, pa := range a.peers {
		st.Peers = append(st.Peers, peerAuditState{
			PeerID:    id,
			Records:   pa.records,
			Rejects:   pa.rejects,
			Replays:   pa.replays,
			Bytes:     pa.bytes,
			Stats:     welfordState{N: pa.stats.n, Mean: pa.stats.mean, M2: pa.stats.m2},
			Flagged:   pa.flagged,
			Offending: append([]string(nil), pa.offending...),
		})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].PeerID < st.Peers[j].PeerID })
	return st
}

// restoreState overwrites the auditor from a snapshot. No OnFlag callbacks
// fire — flag consequences (ejection, suspension) are restored separately
// from their own journal records. Nil-receiver safe.
func (a *Auditor) restoreState(st auditState) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pop = welford{n: st.Pop.N, mean: st.Pop.Mean, m2: st.Pop.M2}
	a.peers = make(map[string]*peerAudit, len(st.Peers))
	for _, ps := range st.Peers {
		a.peers[ps.PeerID] = &peerAudit{
			records:   ps.Records,
			rejects:   ps.Rejects,
			replays:   ps.Replays,
			bytes:     ps.Bytes,
			stats:     welford{n: ps.Stats.N, mean: ps.Stats.Mean, m2: ps.Stats.M2},
			flagged:   ps.Flagged,
			offending: append([]string(nil), ps.Offending...),
		}
	}
}

// mergeDeltasLocked folds per-peer batch deltas into the rolling
// statistics; a.mu must be held.
func (a *Auditor) mergeDeltasLocked(deltas []walAuditDelta) {
	for _, d := range deltas {
		pa := a.peers[d.PeerID]
		if pa == nil {
			pa = &peerAudit{}
			a.peers[d.PeerID] = pa
		}
		pa.records += d.Records
		pa.rejects += d.Rejects
		pa.replays += d.Replays
		pa.bytes += d.Bytes
		pa.stats.merge(d.N, d.Mean, d.M2)
		a.pop.merge(d.N, d.Mean, d.M2)
		for _, tid := range d.Offending {
			if len(pa.offending) < auditMaxOffending {
				pa.offending = append(pa.offending, tid)
			}
		}
	}
}

// applyDeltas folds journaled per-batch audit contributions back in during
// replay. Statistics only: scores are recomputed afterwards by rescoreAll,
// and flags are NOT re-derived here (they replay from their own audit-flag
// records, so recovery can't fire OnFlag side effects twice). Nil-receiver
// safe.
func (a *Auditor) applyDeltas(deltas []walAuditDelta) {
	if a == nil || len(deltas) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mergeDeltasLocked(deltas)
}

// settleOutcome is one record's settlement verdict, collected during batch
// verification and applied (plus journaled, as part of its batch's audit
// deltas) at commit time. nonceKey is set on records that passed
// verification; the nonce is consumed — and the record can still demote to a
// replay rejection — under the commit lock, never before it.
type settleOutcome struct {
	rec      UsageRecord
	err      error
	replayed bool
	nonceKey string
}

// buildAuditDeltas reduces a batch's per-record outcomes to the uploading
// peer's journal delta — a pure function, computed before the journal append
// so the settle record carries exactly what observeSettled will apply.
func buildAuditDeltas(peerID string, outcomes []settleOutcome) []walAuditDelta {
	if len(outcomes) == 0 {
		return nil
	}
	d := walAuditDelta{PeerID: peerID}
	var w welford
	for _, oc := range outcomes {
		d.Records++
		d.Bytes += oc.rec.Bytes
		w.observe(float64(oc.rec.Bytes))
		if oc.err != nil {
			d.Rejects++
			if oc.replayed {
				d.Replays++
			}
			if len(d.Offending) < auditMaxOffending {
				if tc, err := hpop.ParseTraceparent(oc.rec.Traceparent); err == nil {
					d.Offending = append(d.Offending, tc.TraceID.String())
				}
			}
		}
	}
	d.N, d.Mean, d.M2 = w.n, w.mean, w.m2
	return []walAuditDelta{d}
}

// observeSettled applies one settled batch's outcomes at commit time: the
// same statistics, metrics, rescoring, and flagging semantics as calling
// Observe per record, but the statistics arrive as the pre-built deltas
// (identical to the journaled ones — what you replay is what you applied)
// and the whole-population rescore runs once per batch instead of once per
// record. Newly flagged peers get their audit span and OnFlag callback
// outside the lock, exactly like Observe. Nil-receiver safe.
func (a *Auditor) observeSettled(outcomes []settleOutcome, deltas []walAuditDelta) {
	if a == nil || len(outcomes) == 0 {
		return
	}
	a.mu.Lock()
	a.mergeDeltasLocked(deltas)
	for _, oc := range outcomes {
		a.metrics.Inc("nocdn.audit.records")
		a.metrics.Observe("nocdn.audit.claimed_bytes", float64(oc.rec.Bytes))
		if oc.err != nil {
			a.metrics.Inc("nocdn.audit.rejects")
			if oc.replayed {
				a.metrics.Inc("nocdn.audit.replays")
			}
		}
	}
	type flaggedPeer struct {
		id        string
		score     float64
		offending []string
	}
	var newly []flaggedPeer
	for id, p := range a.peers {
		p.score = a.scoreLocked(p)
		a.metrics.Set("nocdn.audit.peer."+id+".deviation", p.score)
		if !p.flagged && p.records >= a.minRecords() && p.score > a.threshold() {
			p.flagged = true
			a.metrics.Inc("nocdn.audit.flagged")
			newly = append(newly, flaggedPeer{id, p.score, append([]string(nil), p.offending...)})
		}
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i].id < newly[j].id })
	tracer := a.tracer
	a.mu.Unlock()

	for _, fp := range newly {
		sp := tracer.Start("nocdn.audit", "peer_flagged")
		sp.SetLabel("peer", fp.id)
		sp.SetLabel("score", strconv.FormatFloat(fp.score, 'g', 4, 64))
		for i, id := range fp.offending {
			sp.SetLabel(fmt.Sprintf("offending_trace_%d", i), id)
		}
		sp.End()
		if a.OnFlag != nil {
			a.OnFlag(fp.id)
		}
	}
}

// restoreFlag marks a peer flagged during replay without firing OnFlag (the
// origin re-applies ejection itself, idempotently). Nil-receiver safe.
func (a *Auditor) restoreFlag(peerID string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	pa := a.peers[peerID]
	if pa == nil {
		pa = &peerAudit{}
		a.peers[peerID] = pa
	}
	pa.flagged = true
}

// rescoreAll recomputes every peer's deviation score after a restore, so
// /debug/audit reads identically to the pre-crash origin. No flagging and no
// OnFlag — this is bookkeeping, not judgment. Nil-receiver safe.
func (a *Auditor) rescoreAll() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, pa := range a.peers {
		pa.score = a.scoreLocked(pa)
		a.metrics.Set("nocdn.audit.peer."+id+".deviation", pa.score)
	}
}

// scoreLocked computes a peer's deviation score; a.mu must be held.
func (a *Auditor) scoreLocked(pa *peerAudit) float64 {
	denom := a.pop.stddev()
	if floor := a.pop.mean / 4; denom < floor {
		denom = floor
	}
	if denom < 1 {
		denom = 1
	}
	z := math.Abs(pa.stats.mean-a.pop.mean) / denom
	rejectRate := 0.0
	if pa.records > 0 {
		rejectRate = float64(pa.rejects) / float64(pa.records)
	}
	return z + 2*rejectRate
}

// PeerAudit is one peer's row in the audit snapshot.
type PeerAudit struct {
	PeerID      string   `json:"peerId"`
	Records     int64    `json:"records"`
	Rejects     int64    `json:"rejects"`
	Replays     int64    `json:"replays"`
	ClaimedByte int64    `json:"claimedBytes"`
	MeanBytes   float64  `json:"meanBytes"`
	StddevBytes float64  `json:"stddevBytes"`
	Deviation   float64  `json:"deviation"`
	Flagged     bool     `json:"flagged"`
	Offending   []string `json:"offendingTraces,omitempty"`
}

// AuditSnapshot is the /debug/audit JSON shape.
type AuditSnapshot struct {
	PopulationMeanBytes   float64     `json:"populationMeanBytes"`
	PopulationStddevBytes float64     `json:"populationStddevBytes"`
	Peers                 []PeerAudit `json:"peers"`
}

// Snapshot returns the current audit state, peers sorted by descending
// deviation score (ties by ID, so output is deterministic).
func (a *Auditor) Snapshot() AuditSnapshot {
	if a == nil {
		return AuditSnapshot{Peers: []PeerAudit{}}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := AuditSnapshot{
		PopulationMeanBytes:   a.pop.mean,
		PopulationStddevBytes: a.pop.stddev(),
		Peers:                 make([]PeerAudit, 0, len(a.peers)),
	}
	for id, pa := range a.peers {
		snap.Peers = append(snap.Peers, PeerAudit{
			PeerID:      id,
			Records:     pa.records,
			Rejects:     pa.rejects,
			Replays:     pa.replays,
			ClaimedByte: pa.bytes,
			MeanBytes:   pa.stats.mean,
			StddevBytes: pa.stats.stddev(),
			Deviation:   pa.score,
			Flagged:     pa.flagged,
			Offending:   append([]string(nil), pa.offending...),
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool {
		if snap.Peers[i].Deviation != snap.Peers[j].Deviation {
			return snap.Peers[i].Deviation > snap.Peers[j].Deviation
		}
		return snap.Peers[i].PeerID < snap.Peers[j].PeerID
	})
	return snap
}

// Handler serves the audit snapshot as JSON at GET /debug/audit.
func (a *Auditor) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(a.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
