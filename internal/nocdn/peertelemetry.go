package nocdn

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hpop/internal/hpop"
)

// Peer-side fleet telemetry: a background reporter builds idempotent
// hpop.TelemetryReport deltas from the peer's own metrics registry and
// ships them to the origin's POST /telemetry/batch on the gossip/flush
// cadence, one attempt per cycle. When the origin is dark the cycle gives
// up silently and the pending report is the retry: the next cycle resends
// it unchanged, and the unshipped delta rides along in the report after
// the ack — telemetry must never make a degraded peer worse.

// DefaultPeerHotKeys bounds the peer-side hot-key sketch drained into each
// report.
const DefaultPeerHotKeys = 128

// EnableTelemetry attaches a delta reporter over the peer's metrics
// registry (call after SetMetrics; hotKeys <= 0 picks DefaultPeerHotKeys).
// Idempotent: a reporter survives re-enabling so sequence numbers and the
// acked baseline are never reset mid-flight.
func (p *Peer) EnableTelemetry(hotKeys int) *hpop.TelemetryReporter {
	if r := p.reporter.Load(); r != nil {
		return r
	}
	if hotKeys <= 0 {
		hotKeys = DefaultPeerHotKeys
	}
	r := hpop.NewTelemetryReporter(p.ID, p.metrics, hotKeys)
	// The shipping path's own bookkeeping must not re-arm the next report,
	// or an idle peer would ship a fresh delta every interval forever.
	r.ExcludePrefix("nocdn.peer.telemetry_")
	if p.reporter.CompareAndSwap(nil, r) {
		return r
	}
	return p.reporter.Load()
}

// TelemetryReporter returns the attached reporter (nil until
// EnableTelemetry; hpop reporter methods are nil-safe).
func (p *Peer) TelemetryReporter() *hpop.TelemetryReporter {
	return p.reporter.Load()
}

// TelemetryOnce builds (or re-uses the pending) delta report and ships it
// to the origin once; a failed ship waits for the next cycle.
// Returns whether a report was acknowledged this cycle; (false, nil) means
// there was nothing to report. EnableTelemetry is implied.
func (p *Peer) TelemetryOnce(ctx context.Context, originURL string) (bool, error) {
	r := p.EnableTelemetry(0)
	rep := r.NextReport()
	if rep == nil {
		return false, nil
	}
	sp := p.tracer.Start("nocdn.peer", "telemetry")
	sp.SetLabel("peer", p.ID)
	sp.SetLabel("seq", fmt.Sprintf("%d", rep.Seq))
	defer sp.End()

	body, err := json.Marshal(TelemetryBatch{Reports: []*hpop.TelemetryReport{rep}})
	if err != nil {
		sp.SetError(err)
		return false, err
	}
	var ack TelemetryAck
	status, err := p.callOrigin(ctx, sp, originURL, http.MethodPost, "/telemetry/batch", body, &ack)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("nocdn: telemetry upload status %d", status)
	}
	if err != nil {
		// Degrade silently: count it, keep the report pending (same bytes,
		// same seq next cycle — that is what makes retries idempotent).
		sp.SetError(err)
		p.metrics.Inc("nocdn.peer.telemetry_failures")
		return false, err
	}
	if seq, ok := ack.Acks[p.ID]; ok {
		r.Ack(seq)
	}
	p.metrics.Inc("nocdn.peer.telemetry_reports")
	return true, nil
}

// startTelemetry launches the background reporter loop against originURL.
// Restarting replaces the previous loop.
func (p *Peer) startTelemetry(originURL string, interval time.Duration) {
	p.EnableTelemetry(0)
	p.telemetryLoop.start(interval, func(ctx context.Context) {
		ctx, cancel := context.WithTimeout(ctx, interval)
		p.TelemetryOnce(ctx, originURL)
		cancel()
	})
}
