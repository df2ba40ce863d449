package experiments

import (
	"fmt"
	"time"

	"hpop/internal/iathome"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
	"hpop/internal/vfs"
	"hpop/internal/webmodel"
)

// RunE4Reuse measures the wrapper-reuse extension: "depending on the peer
// selection policies and billing models employed by the origin site, even
// the wrapper page may be reused among users and/or allowed to be cached by
// the user for a certain time" (§IV-B). The wrapper pool is that reuse: a
// map is built once per epoch, so the epoch-tick cadence is the reuse window.
func RunE4Reuse() (*Table, error) {
	t := &Table{
		ID:      "E4d",
		Title:   "NoCDN wrapper reuse (§IV-B)",
		Claim:   "the wrapper page may be reused among users / cached for a certain time",
		Columns: []string{"epoch tick", "views", "wrappers built", "key freshness"},
	}
	const views = 50
	for _, tick := range []time.Duration{0, 10 * time.Second, time.Minute} {
		current := time.Now()
		lastTick := current
		clock := func() time.Time { return current }
		o := nocdn.NewOrigin("reuse.example", nocdn.WithClock(clock))
		o.AddObject("/i", make([]byte, 10<<10))
		if err := o.AddPage(nocdn.Page{Name: "p", Container: "/i"}); err != nil {
			return nil, err
		}
		o.RegisterPeer("peer", "http://peer", 10)
		for v := 0; v < views; v++ {
			if current.Sub(lastTick) >= tick {
				o.EpochTick()
				lastTick = current
			}
			if _, err := o.AssignWrapper("p", "viewer"); err != nil {
				return nil, err
			}
			current = current.Add(2 * time.Second) // one view every 2 s
		}
		label, freshness := "every view", "fresh keys per view"
		if tick > 0 {
			label, freshness = tick.String(), fmt.Sprintf("keys shared for %s", tick)
		}
		t.AddRow(label, fmt.Sprint(views), fmt.Sprint(o.WrapperGenerations()), freshness)
	}
	t.Notef("reuse trades per-view key freshness for origin CPU; replay protection is unaffected")
	t.Notef("because nonces are per usage record, and assignment stays a function of (page, client, fleet)")
	return t, nil
}

// RunE7DeepWeb measures the deep-web collector: credential-gated sweeps and
// the Calibre-style digest (§IV-D).
func RunE7DeepWeb(cfg E7Config) (*Table, error) {
	t := &Table{
		ID:    "E7e",
		Title: "Internet@home: credentialed deep-web collection (§IV-D)",
		Claim: "the HPoP will hold user credentials so it can copy deep web content ... " +
			"[and] repackage [it] in a generic fashion across sites",
		Columns: []string{"site", "credential", "objects collected", "bytes"},
	}
	corpus := webmodel.NewCorpus(sim.NewRNG(cfg.Seed), webmodel.CorpusConfig{Objects: cfg.CorpusObjects})
	creds := iathome.NewCredentialStore()
	creds.Grant("webmail")
	creds.Grant("news-subscription")
	atticFS := vfs.New()
	collector := &iathome.DeepCollector{
		Corpus:      corpus,
		Cache:       iathome.NewCache(),
		Credentials: creds,
		Attic:       atticFS,
	}
	reports, err := collector.CollectAll(200, 0)
	if err != nil {
		return nil, err
	}
	collected := make(map[string]iathome.CollectorReport, len(reports))
	for _, r := range reports {
		collected[r.Site] = r
	}
	for _, site := range []string{"webmail", "social", "news-subscription", "banking"} {
		if r, ok := collected[site]; ok {
			t.AddRow(site, "granted", fmt.Sprint(r.Collected), fmtBytes(float64(r.Bytes)))
		} else {
			t.AddRow(site, "none", "0 (refused)", "-")
		}
	}
	digestPath, err := collector.WriteDigest(reports, 0)
	if err != nil {
		return nil, err
	}
	info, err := atticFS.Stat(digestPath)
	if err != nil {
		return nil, err
	}
	t.Notef("digest repackaged into the attic at %s (%d bytes) — the generic Calibre-style", digestPath, info.Size)
	t.Notef("packaging; sites without stored credentials are never crawled")
	return t, nil
}
