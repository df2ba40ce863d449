package nocdn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
	base := strings.TrimSuffix(originURL, "/")
	sp := p.tracer.Start("nocdn.peer", "gossip")
	sp.SetLabel("peer", p.ID)
	defer sp.End()

	var resp *http.Response
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/neighbors?peer="+url.QueryEscape(p.ID), nil)
	if err == nil {
		resp, err = p.httpClient.Do(req)
	}
	if err != nil {
		sp.SetError(err)
		return 0, err
	}
	var neighbors []PeerInfo
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&neighbors)
	resp.Body.Close()
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
	var pr *http.Response
	req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/gossip", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		pr, err = p.httpClient.Do(req)
	}
	if err != nil {
		sp.SetError(err)
		p.metrics.Inc("nocdn.peer.gossip_failures")
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(pr.Body, 4<<10))
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		err = fmt.Errorf("nocdn: gossip upload status %d", pr.StatusCode)
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
