package nocdn

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// GossipOnce runs one delegated-probing cycle: fetch this peer's ring
// neighbors from the origin, probe each neighbor's /health directly, and
// upload the verdicts as a GossipReport. Returns how many neighbors were
// observed. Each peer watches O(neighbors); the origin believes none of it,
// but probes the peers whose reported verdict disagrees with its own first,
// so a sampled probe pass reaches a failing peer without scanning the fleet.
// ctx rides every request of the cycle, so cancelling it ends the cycle.
func (p *Peer) GossipOnce(ctx context.Context, originURL string) (int, error) {
	sp := p.tracer.Start("nocdn.peer", "gossip")
	sp.SetLabel("peer", p.ID)
	defer sp.End()

	var neighbors []PeerInfo
	status, err := p.callOrigin(ctx, sp, originURL, http.MethodGet, "/neighbors?peer="+url.QueryEscape(p.ID), nil, &neighbors)
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("nocdn: neighbors status %d", status)
	}
	if err != nil {
		sp.SetError(err)
		return 0, err
	}
	if len(neighbors) == 0 {
		return 0, nil
	}

	rep := GossipReport{From: p.ID}
	for _, nbr := range neighbors {
		ok, _, _ := probeHealth(ctx, p.httpClient, nbr.URL)
		rep.Observations = append(rep.Observations, PeerObservation{PeerID: nbr.ID, Healthy: ok})
	}
	sp.SetLabel("observations", strconv.Itoa(len(rep.Observations)))

	body, err := json.Marshal(rep)
	if err != nil {
		sp.SetError(err)
		return 0, err
	}
	status, err = p.callOrigin(ctx, sp, originURL, http.MethodPost, "/gossip", body, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("nocdn: gossip upload status %d", status)
	}
	if err != nil {
		sp.SetError(err)
		p.metrics.Inc("nocdn.peer.gossip_failures")
		return 0, err
	}
	p.metrics.Inc("nocdn.peer.gossip_reports")
	return len(rep.Observations), nil
}

// startGossip launches the background neighbor-gossip loop against
// originURL. Restarting replaces the previous loop.
func (p *Peer) startGossip(originURL string, interval time.Duration) {
	p.gossipLoop.start(interval, func(ctx context.Context) { p.GossipOnce(ctx, originURL) })
}
