package nocdn

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"hpop/internal/hpop"
)

// PeerConfig is what a daemon's flags say about the peer it runs; a zero
// field leaves its part off or at NewPeer's default. The first provider's
// origin receives gossip and telemetry. The scrubber runs whenever StateDir
// is set (ScrubInterval <= 0: DefaultCacheScrubInterval).
type PeerConfig struct {
	ID        string
	Providers [][2]string // {name, origin URL} in flag order (ParseProviders)

	CacheBytes   int
	MaxInflight  int
	FetchTimeout time.Duration     // as http.Client.Timeout; <= 0: DefaultPeerFetchTimeout
	Transport    http.RoundTripper // nil: the peer's pooled transport

	StateDir                     string // disk tier and record spool (empty: memory only)
	DiskCacheBytes, SegmentBytes int64

	ScrubInterval, GossipInterval, TelemetryInterval time.Duration

	Metrics *hpop.Metrics
	Tracer  *hpop.Tracer
}

// ParseProviders reads a "name=url,name=url" sign-up list. Empty entries are
// skipped; an entry without '=' or whose name fails CheckName is refused.
func ParseProviders(list string) ([][2]string, error) {
	var out [][2]string
	for _, entry := range strings.Split(list, ",") {
		if entry == "" {
			continue
		}
		name, url, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("entry %q: want name=url", entry)
		}
		if err := CheckName(name); err != nil {
			return nil, err
		}
		out = append(out, [2]string{name, url})
	}
	return out, nil
}

// OpenPeer boots a running peer from cfg, in one order: metrics and tracer,
// the outbound client and the admission cap, the sign-ups, then under
// StateDir the disk tier and the record spool (whose records are requeued),
// and last the scrub, gossip and telemetry loops. A failed step closes what
// the earlier steps opened before the error returns.
func OpenPeer(cfg PeerConfig) (*Peer, error) {
	p := NewPeer(cfg.ID, cfg.CacheBytes)
	p.SetMetrics(cfg.Metrics)
	p.SetTracer(cfg.Tracer)
	if cfg.Transport != nil {
		p.httpClient.Transport = cfg.Transport
	}
	if cfg.FetchTimeout > 0 {
		p.httpClient.Timeout = cfg.FetchTimeout
	}
	p.SetMaxInflight(cfg.MaxInflight)
	for _, s := range cfg.Providers {
		p.SignUp(s[0], s[1])
	}
	if cfg.StateDir != "" {
		if err := p.AttachDiskCache(cfg.StateDir, cfg.DiskCacheBytes, cfg.SegmentBytes); err != nil {
			return nil, err
		}
		if err := p.AttachRecordSpool(cfg.StateDir); err != nil {
			p.Close()
			return nil, err
		}
		p.startCacheScrub(cfg.ScrubInterval)
	}
	if len(cfg.Providers) > 0 {
		origin := cfg.Providers[0][1]
		if cfg.GossipInterval > 0 {
			p.startGossip(origin, cfg.GossipInterval)
		}
		if cfg.TelemetryInterval > 0 {
			p.startTelemetry(origin, cfg.TelemetryInterval)
		}
	}
	return p, nil
}

// Close stops the peer's loops, then writes the record lanes to the spool
// and closes it, then closes the disk tier. A part that is not running is
// skipped, so Close also undoes a partial boot.
func (p *Peer) Close() {
	p.scrubLoop.halt()
	p.gossipLoop.halt()
	p.telemetryLoop.halt()
	p.CloseRecordSpool()
	p.CloseDiskCache()
}
