package nocdn

import (
	"encoding/json"
	"net/http"
	"sort"

	"hpop/internal/hpop"
)

// auditMaxOffending caps how many offending trace IDs are retained per peer;
// enough to investigate, bounded so a reject storm can't grow a row without
// limit.
const auditMaxOffending = 8

// peerAudit is the evidence half of a peer's settlement row, in memory and
// in snapshots alike. Bytes are claimed bytes, counted before verification,
// so inflation registers here.
type peerAudit struct {
	PeerID  string `json:"peerId"`
	Records int64  `json:"records"`
	Rejects int64  `json:"rejects"`
	Replays int64  `json:"replays"`
	Bytes   int64  `json:"bytes"`
	// Offending holds trace IDs of rejected records (bounded), so a peer's
	// rejected records link straight back to the page views involved.
	Offending []string `json:"offending,omitempty"`
}

// Auditor is the read view over the evidence half of the ledger's
// settlement rows: for every batch uploader, the records it submitted, how
// many were rejected or replayed, the bytes it claimed, and the trace IDs of
// its rejected records. It judges nobody by statistics and flags nobody: a
// rejected record earns nothing, so it is evidence, not a verdict. The one
// verdict, over-claiming against the assigned floor, is the ledger's, taken
// as it applies the batch to its uploader's row alone, so a peer's row
// never moves because of another peer's traffic.
type Auditor struct {
	ledger  *ledger
	metrics *hpop.Metrics
}

// SetMetrics wires the nocdn.audit.* exports.
func (a *Auditor) SetMetrics(m *hpop.Metrics) {
	if a != nil {
		a.metrics = m
	}
}

// auditState is the audit section of a snapshot: the evidence half of every
// row that has any. Older snapshots also carry "pop", and per-peer "stats"
// and "flagged"; decoding ignores them. A flagged peer's suspension is in
// its ledger row, and only that keeps it out of the maps.
type auditState struct {
	Peers []peerAudit `json:"peers"`
}

// settleOutcome is one record's settlement verdict, collected during batch
// verification and applied (plus journaled, as part of its batch's audit
// delta) at commit time. nonceKey is set on records that passed
// verification; the nonce is consumed — and the record can still demote to a
// replay rejection — under the commit lock, never before it.
type settleOutcome struct {
	rec      UsageRecord
	err      error
	replayed bool
	nonceKey string
}

// buildAuditDelta reduces a batch's per-record outcomes to the uploading
// peer's evidence delta — a pure function, computed before the journal
// append so the settle record carries exactly what the ledger applies.
func buildAuditDelta(peerID string, outcomes []settleOutcome) walAuditDelta {
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
	return d
}

// countSettled exports one committed batch's outcomes as the nocdn.audit.*
// counters. Nil-receiver safe.
func (a *Auditor) countSettled(outcomes []settleOutcome) {
	if a == nil {
		return
	}
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

// PeerAudit is one peer's row in the audit snapshot.
type PeerAudit struct {
	PeerID      string   `json:"peerId"`
	Records     int64    `json:"records"`
	Rejects     int64    `json:"rejects"`
	Replays     int64    `json:"replays"`
	ClaimedByte int64    `json:"claimedBytes"`
	Flagged     bool     `json:"flagged"` // always false: nothing flags a peer
	Offending   []string `json:"offendingTraces,omitempty"`
}

// AuditSnapshot is the /debug/audit JSON shape.
type AuditSnapshot struct {
	Peers []PeerAudit `json:"peers"`
}

// Snapshot returns the current audit state by descending rejects, ties by
// ID, so the peer to look at leads and the output is deterministic.
func (a *Auditor) Snapshot() AuditSnapshot {
	if a == nil {
		return AuditSnapshot{Peers: []PeerAudit{}}
	}
	rows := a.ledger.evidence()
	snap := AuditSnapshot{Peers: make([]PeerAudit, 0, len(rows))}
	for _, pa := range rows {
		snap.Peers = append(snap.Peers, PeerAudit{
			PeerID:      pa.PeerID,
			Records:     pa.Records,
			Rejects:     pa.Rejects,
			Replays:     pa.Replays,
			ClaimedByte: pa.Bytes,
			Offending:   pa.Offending,
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool {
		pi, pj := snap.Peers[i], snap.Peers[j]
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
