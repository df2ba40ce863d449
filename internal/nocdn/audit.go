package nocdn

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"hpop/internal/hpop"
)

// auditMaxOffending caps how many offending trace IDs are retained per peer;
// enough to investigate, bounded so a reject storm can't grow the auditor
// without limit.
const auditMaxOffending = 8

// peerAudit is one peer's settlement evidence row, in memory and in
// snapshots alike. Bytes are claimed bytes, counted before verification, so
// inflation registers here.
type peerAudit struct {
	PeerID  string `json:"peerId"`
	Records int64  `json:"records"`
	Rejects int64  `json:"rejects"`
	Replays int64  `json:"replays"`
	Bytes   int64  `json:"bytes"`
	Flagged bool   `json:"flagged,omitempty"`
	// Offending holds trace IDs of rejected records (bounded), so a flagged
	// peer's misbehaviour links straight back to the page views involved.
	Offending []string `json:"offending,omitempty"`
}

// Auditor keeps the origin's per-peer settlement evidence: for every batch
// uploader, the records it submitted, how many were rejected or replayed,
// the bytes it claimed, and the trace IDs of its rejected records. It judges
// nobody by statistics. A peer is flagged only on direct evidence
// (FlagTampered: a sampled leaf of its own batch failed verification); the
// other verdict, over-claiming against the assigned floor, is the ledger's
// anomalyCheck. Both look only at the batch's uploader, so a peer's row
// never moves because of another peer's traffic.
type Auditor struct {
	// OnFlag, when set, is invoked (outside the auditor's lock) each time a
	// peer is newly flagged — the origin uses it to eject the peer from
	// future wrapper maps immediately instead of waiting for the next probe.
	OnFlag func(peerID string)

	mu    sync.Mutex
	peers map[string]*peerAudit

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

// rowLocked returns peerID's evidence row, creating it; a.mu must be held.
func (a *Auditor) rowLocked(peerID string) *peerAudit {
	pa := a.peers[peerID]
	if pa == nil {
		pa = &peerAudit{PeerID: peerID}
		a.peers[peerID] = pa
	}
	return pa
}

// FlagTampered flags a peer on direct evidence — a sampled leaf of a
// Merkle-committed settlement batch, uploaded in the peer's name, that
// failed verification. The root commits to the exact record bytes, so a
// non-verifying leaf cannot be transport corruption. The upload itself is
// not authenticated, so the evidence is against whoever sent the batch under
// that name. A new flag emits one peer_flagged span and fires OnFlag.
// Nil-receiver safe.
func (a *Auditor) FlagTampered(peerID string, cause error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	pa := a.rowLocked(peerID)
	if pa.Flagged {
		a.mu.Unlock()
		return
	}
	pa.Flagged = true
	a.metrics.Inc("nocdn.audit.flagged")
	offending := append([]string(nil), pa.Offending...)
	tracer, onFlag := a.tracer, a.OnFlag
	a.mu.Unlock()
	// The span carries the evidence: which peer, why, and the trace IDs of
	// its rejected records, so an operator can pull each implicated page
	// view's full tree from /debug/trace.
	sp := tracer.Start("nocdn.audit", "peer_flagged")
	sp.SetLabel("peer", peerID)
	sp.SetLabel("cause", "merkle_sample")
	for i, id := range offending {
		sp.SetLabel(fmt.Sprintf("offending_trace_%d", i), id)
	}
	if cause != nil {
		sp.SetError(cause)
	}
	sp.End()
	if onFlag != nil {
		onFlag(peerID)
	}
}

// auditState is the auditor's persisted form. Snapshots written before the
// statistical scorer was removed also carry "pop" and per-peer "stats";
// decoding ignores them.
type auditState struct {
	Peers []peerAudit `json:"peers"`
}

// exportState captures the auditor for a snapshot, peers sorted by ID so
// snapshot bytes are deterministic. Nil-receiver safe.
func (a *Auditor) exportState() auditState {
	if a == nil {
		return auditState{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := auditState{Peers: make([]peerAudit, 0, len(a.peers))}
	for _, pa := range a.peers {
		row := *pa
		row.Offending = append([]string(nil), pa.Offending...)
		st.Peers = append(st.Peers, row)
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
	a.peers = make(map[string]*peerAudit, len(st.Peers))
	for _, row := range st.Peers {
		a.peers[row.PeerID] = &row
	}
}

// mergeDeltasLocked adds per-peer batch deltas to the evidence rows; a.mu
// must be held.
func (a *Auditor) mergeDeltasLocked(deltas []walAuditDelta) {
	for _, d := range deltas {
		pa := a.rowLocked(d.PeerID)
		pa.Records += d.Records
		pa.Rejects += d.Rejects
		pa.Replays += d.Replays
		pa.Bytes += d.Bytes
		for _, tid := range d.Offending {
			if len(pa.Offending) < auditMaxOffending {
				pa.Offending = append(pa.Offending, tid)
			}
		}
	}
}

// applyDeltas folds journaled per-batch audit contributions back in during
// replay. Flags are not derived here: they replay from their own audit-flag
// records, so recovery can't fire OnFlag side effects twice. Nil-receiver
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
	for _, oc := range outcomes {
		d.Records++
		d.Bytes += oc.rec.Bytes
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
	return []walAuditDelta{d}
}

// observeSettled applies one settled batch's outcomes at commit time: the
// deltas are the pre-built, journaled ones (what you replay is what you
// applied), and they touch only the uploader's row. Judging is not done
// here. Nil-receiver safe.
func (a *Auditor) observeSettled(outcomes []settleOutcome, deltas []walAuditDelta) {
	if a == nil || len(outcomes) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
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
}

// restoreFlag marks a peer flagged during replay without firing OnFlag (the
// origin re-applies ejection itself, idempotently). Nil-receiver safe.
func (a *Auditor) restoreFlag(peerID string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rowLocked(peerID).Flagged = true
}

// PeerAudit is one peer's row in the audit snapshot.
type PeerAudit struct {
	PeerID      string   `json:"peerId"`
	Records     int64    `json:"records"`
	Rejects     int64    `json:"rejects"`
	Replays     int64    `json:"replays"`
	ClaimedByte int64    `json:"claimedBytes"`
	Flagged     bool     `json:"flagged"`
	Offending   []string `json:"offendingTraces,omitempty"`
}

// AuditSnapshot is the /debug/audit JSON shape.
type AuditSnapshot struct {
	Peers []PeerAudit `json:"peers"`
}

// Snapshot returns the current audit state: flagged peers first, then by
// descending rejects, ties by ID, so the peer to look at leads and the
// output is deterministic.
func (a *Auditor) Snapshot() AuditSnapshot {
	if a == nil {
		return AuditSnapshot{Peers: []PeerAudit{}}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := AuditSnapshot{Peers: make([]PeerAudit, 0, len(a.peers))}
	for _, pa := range a.peers {
		snap.Peers = append(snap.Peers, PeerAudit{
			PeerID:      pa.PeerID,
			Records:     pa.Records,
			Rejects:     pa.Rejects,
			Replays:     pa.Replays,
			ClaimedByte: pa.Bytes,
			Flagged:     pa.Flagged,
			Offending:   append([]string(nil), pa.Offending...),
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool {
		pi, pj := snap.Peers[i], snap.Peers[j]
		if pi.Flagged != pj.Flagged {
			return pi.Flagged
		}
		if pi.Rejects != pj.Rejects {
			return pi.Rejects > pj.Rejects
		}
		return pi.PeerID < pj.PeerID
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
