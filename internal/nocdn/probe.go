package nocdn

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// probing is the origin's health-probing part. probeMu guards each peer's
// health verdict as of the last probe pass (so transitions are detected),
// the registered peers gossip has nominated for the next pass, in
// nomination order and each at most once, and the deterministic RNG that
// probe sampling draws from.
type probing struct {
	probeMu      sync.Mutex
	probeHealthy map[string]bool
	nominated    []string
	nominatedSet map[string]bool
	rng          *sim.RNG

	// probeClient bounds every direct probe.
	probeClient *http.Client

	// probeLoop runs ProbeSample on the daemon's -probe-interval cadence.
	probeLoop loop
}

// ProbeSample runs one health-probe pass over k registered peers: first
// the peers gossip nominated (ReportGossip), in nomination order, then a
// random sample of the rest. The pass consumes the nominations it probes.
// It is the only thing that moves a breaker on the origin's side: gossip
// points the probe at a peer, the probe decides. k <= 0 probes every
// registered peer, an O(fleet) scan for deployments too small to need
// gossip.
//
// Outcomes and self-reported saturation feed the health registry,
// respecting each peer's breaker (an open one skips the network until its
// cooldown grants a half-open probe). A peer reporting saturation >= 1
// (actively shedding) counts as a failure: new maps route around it until
// it drains. Readmission has hysteresis by construction — it takes the
// breaker's full half-open probe cycle, never a single good poll.
func (o *Origin) ProbeSample(ctx context.Context, k int) {
	if o.health == nil {
		return
	}
	if k <= 0 {
		k = o.registry.count()
	}
	sp := o.tracer.Start("nocdn.origin", "probe_sample")
	sp.SetLabel("k", strconv.Itoa(k))
	defer sp.End()
	for _, p := range o.probePass(k) {
		if !o.health.Allow(p.id) {
			continue // open breaker: wait out the cooldown
		}
		start := time.Now()
		ok, saturation, _ := probeHealth(ctx, o.probeClient, p.url)
		if ok {
			o.health.RecordSuccess(p.id, time.Since(start).Seconds())
			o.health.ReportSaturation(p.id, saturation)
		} else {
			o.health.RecordFailure(p.id)
		}
		o.noteHealthTransition(sp, p.id)
	}
}

// probePass picks one probe pass of up to k peers: the nominated ones
// first, in nomination order, then registry.sample's draw, skipping peers
// already in the pass. The nominations it takes are consumed.
func (o *Origin) probePass(k int) []peerStatic {
	o.probeMu.Lock()
	taken := slices.Clone(o.nominated[:min(k, len(o.nominated))])
	o.nominated = slices.Delete(o.nominated, 0, len(taken))
	for _, id := range taken {
		delete(o.nominatedSet, id)
	}
	o.probeMu.Unlock()
	pass := make([]peerStatic, 0, k)
	inPass := make(map[string]bool, len(taken))
	for _, id := range taken {
		if p, ok := o.registry.get(id); ok {
			pass = append(pass, p)
			inPass[id] = true
		}
	}
	for _, p := range o.registry.sample(k, o.randIntn) {
		if len(pass) == k {
			break
		}
		if !inPass[p.id] {
			pass = append(pass, p)
		}
	}
	return pass
}

// randIntn draws from the origin's deterministic RNG (probe sampling).
func (o *Origin) randIntn(n int) int {
	o.probeMu.Lock()
	defer o.probeMu.Unlock()
	return o.rng.Intn(n)
}

// noteHealthTransition compares a peer's current health verdict against the
// last recorded one; on a transition it invalidates wrapper state and
// emits the ejection/readmission metric and span.
func (o *Origin) noteHealthTransition(sp *hpop.Span, peerID string) {
	after := o.health.Healthy(peerID)
	o.probeMu.Lock()
	before, known := o.probeHealthy[peerID]
	if !known {
		before = true
	}
	o.probeHealthy[peerID] = after
	transition := before != after
	o.probeMu.Unlock()
	if !transition {
		return
	}
	o.invalidateWrappers()
	name := "peer_ejected"
	metric := "nocdn.origin.peer_ejections"
	if after {
		name = "peer_readmitted"
		metric = "nocdn.origin.peer_readmissions"
	}
	o.metrics.Inc(metric)
	tsp := sp.Child(name)
	tsp.SetLabel("peer", peerID)
	tsp.End()
}

// PeerObservation is one neighbor's health as a gossiping peer saw it.
// Reports from older peers also carry latency and saturation; decoding
// ignores them.
type PeerObservation struct {
	PeerID  string `json:"peerId"`
	Healthy bool   `json:"healthy"`
}

// GossipReport is a peer's upload of neighbor health summaries — the
// delegated share of fleet probing. POST /gossip carries this shape.
type GossipReport struct {
	From         string            `json:"from"`
	Observations []PeerObservation `json:"observations"`
}

// ReportGossip takes one peer's neighbor health report. Nothing
// authenticates a report — anyone can POST one under any From — so it moves
// no breaker and does no I/O: an observation of a registered peer that
// disagrees with the registry's verdict nominates that peer for the next
// probe pass (ProbeSample), which decides. A peer is nominated at most once
// until a pass probes it, so the nominations never outnumber the registered
// peers. Returns how many peers the report newly nominated.
func (o *Origin) ReportGossip(rep GossipReport) int {
	if o.health == nil || len(rep.Observations) == 0 {
		return 0
	}
	sp := o.tracer.Start("nocdn.origin", "gossip_report")
	sp.SetLabel("from", rep.From)
	sp.SetLabel("observations", strconv.Itoa(len(rep.Observations)))
	defer sp.End()
	o.metrics.Inc("nocdn.origin.gossip_reports")

	nominated := 0
	for _, obs := range rep.Observations {
		if obs.Healthy == o.health.Healthy(obs.PeerID) {
			continue
		}
		if _, ok := o.registry.get(obs.PeerID); !ok {
			continue
		}
		o.probeMu.Lock()
		if !o.nominatedSet[obs.PeerID] {
			o.nominatedSet[obs.PeerID] = true
			o.nominated = append(o.nominated, obs.PeerID)
			nominated++
		}
		o.probeMu.Unlock()
	}
	sp.SetLabel("nominated", strconv.Itoa(nominated))
	return nominated
}

// Neighbors returns up to n of a peer's ring successors — the neighbor set
// it should probe and gossip about. Derived from the consistent-hash ring,
// so the fleet's probe graph shifts only ~1/N on membership changes.
func (o *Origin) Neighbors(peerID string, n int) []PeerInfo {
	ids := o.ring.successors("nbr|"+peerID, n, func(id string) bool {
		return id != peerID && !o.ledger.isSuspended(id)
	})
	out := make([]PeerInfo, 0, len(ids))
	for _, id := range ids {
		if p, ok := o.registry.get(id); ok {
			out = append(out, PeerInfo{ID: p.id, URL: p.url, RTTMillis: p.rtt})
		}
	}
	return out
}

func (o *Origin) handleGossip(w http.ResponseWriter, r *http.Request) {
	body, ok := readUpload(w, r, 1<<20)
	if !ok {
		return
	}
	var rep GossipReport
	if err := json.Unmarshal(body, &rep); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nominated := o.ReportGossip(rep)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"nominated":%d}`, nominated)
}

func (o *Origin) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	peer := r.URL.Query().Get("peer")
	if peer == "" {
		http.Error(w, "peer required", http.StatusBadRequest)
		return
	}
	n := 3
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 && parsed <= 32 {
			n = parsed
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(o.Neighbors(peer, n))
}
