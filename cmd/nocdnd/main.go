// Command nocdnd runs a NoCDN node: a content-provider origin serving
// wrapper pages for a directory of content, or a standalone peer (caching
// reverse proxy with virtual hosting).
//
// Origin mode:
//
//	nocdnd -mode origin -listen :8000 -provider example.com -content ./site \
//	       -peer peer-a=http://hpop-a:8080/nocdn -peer peer-b=http://hpop-b:8080/nocdn
//
// Every file under -content becomes an object; the file "index.html" in
// each directory is that page's container and its siblings are the
// embedded objects.
//
// Peer mode:
//
//	nocdnd -mode peer -listen :8001 -id peer-a -provider example.com=http://origin:8000
//
// Load mode (a client-side page view: wrapper fetch, one bundle of objects
// from each peer in parallel, each object hash-verified, usage-record
// delivery):
//
//	nocdnd -mode load -origin http://origin:8000 -page index -concurrency 6 -views 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nocdnd:", err)
		os.Exit(1)
	}
}

// peerFlags accumulates repeated -peer key=value flags.
type kvFlags struct {
	pairs [][2]string
}

// String implements flag.Value.
func (f *kvFlags) String() string { return fmt.Sprint(f.pairs) }

// Set implements flag.Value.
func (f *kvFlags) Set(v string) error {
	kv := strings.SplitN(v, "=", 2)
	if len(kv) != 2 {
		return fmt.Errorf("want key=value, got %q", v)
	}
	f.pairs = append(f.pairs, [2]string{kv[0], kv[1]})
	return nil
}

// checkNameFlags refuses an origin's provider name or peer IDs, or a peer's
// ID, that could not travel as a field of a usage record's leaf
// (nocdn.CheckName), before anything starts. A peer's provider names are
// checked as nocdn.ParseProviders reads them.
func checkNameFlags(mode, provider, id string, peers [][2]string) error {
	check := func(flag, name string) error {
		if err := nocdn.CheckName(name); err != nil {
			return fmt.Errorf("%s: %w", flag, err)
		}
		return nil
	}
	switch mode {
	case "origin":
		if err := check("-provider", provider); err != nil {
			return err
		}
		for _, kv := range peers {
			if err := check("-peer", kv[0]); err != nil {
				return err
			}
		}
	case "peer":
		return check("-id", id)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("nocdnd", flag.ContinueOnError)
	mode := fs.String("mode", "origin", "origin or peer")
	listen := fs.String("listen", "127.0.0.1:8000", "listen address")
	provider := fs.String("provider", "example.com", "origin: provider name; peer: provider=originURL list")
	content := fs.String("content", "", "origin: content directory")
	id := fs.String("id", "peer", "peer: peer ID")
	cacheMB := fs.Int("cache-mb", 64, "peer: memory cache size in MB")
	cacheDir := fs.String("cache-dir", "",
		"peer: directory for the disk cache tier (empty: memory-only)")
	diskCacheMB := fs.Int("disk-cache-mb", 1024,
		"peer: disk cache tier budget in MB (needs -cache-dir)")
	segmentMB := fs.Int("segment-mb", 64,
		"peer: disk cache segment rotation size in MB")
	cacheScrub := fs.Duration("cache-scrub-interval", 0,
		"peer: at-rest segment verification cadence (0 = hourly default; needs -cache-dir)")
	originURL := fs.String("origin", "", "load: origin base URL")
	page := fs.String("page", "index", "load: page name to fetch")
	clientID := fs.String("client", "",
		"load: stable client identity — the origin serves a pooled wrapper map for it (empty: the origin keys the map on this host's address)")
	concurrency := fs.Int("concurrency", nocdn.DefaultConcurrency,
		"load: max simultaneous object/chunk fetches (1 = serial)")
	views := fs.Int("views", 1, "load: number of page views")
	fetchTimeout := fs.Duration("fetch-timeout", nocdn.DefaultFetchTimeout,
		"per-request HTTP timeout for loader and peer fetches")
	retries := fs.Int("retries", faults.DefaultMaxAttempts,
		"load: max attempts per fetch (1 = no retries)")
	chaos := fs.String("chaos", "", "load/peer: inline fault schedule on outbound fetches (see internal/faults)")
	chaosSeed := fs.Uint64("chaos-seed", 0, "load/peer: override the schedule's seed (0 = keep)")
	debugAddr := fs.String("debug-addr", "",
		"serve pprof plus /metrics, /healthz and /debug/traces on a second listener (empty: disabled)")
	breakerWindow := fs.Int("breaker-window", hpop.DefaultBreakerWindow,
		"circuit breaker: sliding outcome window size")
	breakerThreshold := fs.Float64("breaker-threshold", hpop.DefaultFailureThreshold,
		"circuit breaker: windowed failure rate that opens the breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", hpop.DefaultBreakerCooldown,
		"circuit breaker: open -> half-open delay")
	breakerProbes := fs.Int("breaker-probes", hpop.DefaultProbeBudget,
		"circuit breaker: concurrent half-open probe budget")
	breakerReadmit := fs.Int("breaker-readmit", hpop.DefaultReadmitAfter,
		"circuit breaker: consecutive probe successes that close it again")
	probeInterval := fs.Duration("probe-interval", 0,
		"origin: poll every registered peer's /health on this cadence (0 = disabled)")
	probeSample := fs.Int("probe-sample", 0,
		"origin: probe only this many peers per pass, those gossip nominated first, then a random sample (0 = full scan; pair with -gossip-interval on peers, whose reports only nominate)")
	epochTick := fs.Duration("epoch-tick", 0,
		"origin: assignment-epoch heartbeat — refresh pooled wrapper maps on this cadence (0 = disabled; keys renew without a tick, a map being rebuilt once its keys are 5 minutes old)")
	gossipInterval := fs.Duration("gossip-interval", 0,
		"peer: probe ring neighbors and gossip their health to the first provider's origin on this cadence (0 = disabled)")
	telemetryInterval := fs.Duration("telemetry-interval", 0,
		"peer: ship metric delta reports to the first provider's origin on this cadence (0 = disabled)")
	sloAvailability := fs.Float64("slo-availability", nocdn.DefaultAvailabilityObjective,
		"origin: fleet availability SLO objective (fraction of proxy requests that must serve bytes)")
	sloLatency := fs.Float64("slo-latency", nocdn.DefaultServeLatencyObjective,
		"origin: fleet serve-latency SLO objective (fraction of serves under the threshold)")
	sloServeThreshold := fs.Duration("slo-serve-threshold", 0,
		"origin: serve-latency SLO good/bad threshold (0 = 250ms default)")
	fleetStaleAfter := fs.Duration("fleet-stale-after", 0,
		"origin: telemetry sources silent past this window stop counting as active (0 = 2m default)")
	maxInflight := fs.Int("max-inflight", 0,
		"peer: max simultaneous proxy requests before shedding with 503 (0 = default)")
	replicas := fs.Int("replicas", 0,
		"origin: alternate peers listed per wrapper object for client failover")
	objectMaxAge := fs.Duration("object-max-age", nocdn.DefaultObjectMaxAge,
		"origin: Cache-Control max-age for /content responses (negative: no Cache-Control)")
	staleWhileReval := fs.Duration("stale-while-revalidate", nocdn.DefaultStaleWhileRevalidate,
		"origin: stale-while-revalidate window granted past max-age (0: omit)")
	staleIfError := fs.Duration("stale-if-error", nocdn.DefaultStaleIfError,
		"origin: stale-if-error window granted past max-age (0: omit)")
	brownout := fs.Bool("brownout", false,
		"load: serve pages with degraded-object markers instead of failing the view")
	stateDir := fs.String("state-dir", "",
		"origin: directory for the control-plane WAL and snapshots (empty: in-memory only)")
	fsyncPolicy := fs.String("fsync", "always",
		"origin: WAL fsync policy — always (group commit before each settlement ack), interval (100ms), never")
	var peers kvFlags
	fs.Var(&peers, "peer", "origin: peerID=peerURL (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkNameFlags(*mode, *provider, *id, peers.pairs); err != nil {
		return err
	}
	var signUps [][2]string
	if *mode == "peer" {
		var err error
		if signUps, err = nocdn.ParseProviders(*provider); err != nil {
			return fmt.Errorf("-provider: %w", err)
		}
		if len(signUps) == 0 {
			return fmt.Errorf("peer mode wants -provider name=originURL[,...]")
		}
	}

	metrics := hpop.NewMetrics()
	tracer := hpop.NewTracer(0)
	// One health registry per process: the origin's wrapper gate, the
	// loader's candidate ranking, and /debug/health all read the same state.
	health := hpop.NewHealthRegistry(hpop.BreakerConfig{
		Window:           *breakerWindow,
		FailureThreshold: *breakerThreshold,
		Cooldown:         *breakerCooldown,
		ProbeBudget:      *breakerProbes,
		ReadmitAfter:     *breakerReadmit,
	})
	health.SetMetrics(metrics)
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		name := "nocdnd-" + *mode
		srv := &http.Server{Handler: hpop.DebugMux(name, metrics, tracer, func() map[string]error {
			return map[string]error{*mode: nil}
		}, health)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("debug endpoints (pprof, /metrics, /healthz, /debug/traces, /debug/health) at http://%s/\n", ln.Addr())
	}

	switch *mode {
	case "origin":
		o := nocdn.NewOrigin(*provider,
			nocdn.WithReplicas(*replicas),
			nocdn.WithCachePolicy(*objectMaxAge, *staleWhileReval, *staleIfError),
			nocdn.WithHealthRegistry(health))
		o.SetMetrics(metrics)
		o.SetTracer(tracer)
		o.DeclareFleetSLOs(*sloAvailability, *sloLatency, sloServeThreshold.Seconds())
		if *fleetStaleAfter > 0 {
			o.Fleet().StaleAfter = *fleetStaleAfter
		}
		if *stateDir != "" {
			policy, err := nocdn.ParseFsyncPolicy(*fsyncPolicy)
			if err != nil {
				return fmt.Errorf("-fsync: %w", err)
			}
			stats, err := o.AttachWAL(*stateDir, nocdn.WALOptions{Fsync: policy})
			if err != nil {
				return fmt.Errorf("attach WAL: %w", err)
			}
			fmt.Printf("control-plane WAL at %s (fsync=%s): replayed %d record(s) from seq %d in %v\n",
				*stateDir, policy, stats.RecordsReplayed, stats.SnapshotSeq,
				stats.Duration.Round(time.Millisecond))
			if stats.TruncatedTail {
				fmt.Println("WAL recovery truncated a torn tail (crash mid-append; unacked work only)")
			}
		}
		if *content == "" {
			return fmt.Errorf("origin mode requires -content")
		}
		if err := loadContent(o, *content); err != nil {
			return err
		}
		for i, kv := range peers.pairs {
			if err := o.RegisterPeer(kv[0], kv[1], float64(10+i*10)); err != nil {
				return err
			}
		}
		o.StartLoops(*probeInterval, *probeSample, *epochTick)
		switch {
		case *probeInterval > 0 && *probeSample > 0:
			fmt.Printf("probing %d peers every %v, gossip-nominated first (delegated probing)\n", *probeSample, *probeInterval)
		case *probeInterval > 0:
			fmt.Printf("probing peer health every %v\n", *probeInterval)
		}
		if *epochTick > 0 {
			fmt.Printf("refreshing pooled wrapper maps every %v\n", *epochTick)
		}
		fmt.Printf("nocdn origin %q on %s (%d peers)\n", *provider, *listen, len(peers.pairs))
		// SIGTERM drains in-flight settlements, stops the probe and epoch
		// loops, takes a final snapshot, and closes the WAL — a clean restart
		// replays the snapshot, not the log.
		return serveUntilSignal(*listen, observabilityMux(*mode, o.Handler(), metrics, tracer, health), func() {
			if err := o.Shutdown(); err != nil {
				fmt.Fprintln(os.Stderr, "nocdnd: shutdown snapshot:", err)
			}
		})
	case "peer":
		cfg := nocdn.PeerConfig{
			ID:                *id,
			Providers:         signUps,
			CacheBytes:        *cacheMB << 20,
			FetchTimeout:      *fetchTimeout,
			MaxInflight:       *maxInflight,
			StateDir:          *cacheDir,
			DiskCacheBytes:    int64(*diskCacheMB) << 20,
			SegmentBytes:      int64(*segmentMB) << 20,
			ScrubInterval:     *cacheScrub,
			GossipInterval:    *gossipInterval,
			TelemetryInterval: *telemetryInterval,
			Metrics:           metrics,
			Tracer:            tracer,
		}
		if *chaos != "" {
			// Degrade this peer's own origin fetches — the fault-injected
			// peer shows up in the origin's /debug/fleet worst rankings and
			// burns the fleet SLO budgets once telemetry ships.
			var err error
			if cfg.Transport, err = chaosTransport(*chaos, *chaosSeed, metrics); err != nil {
				return err
			}
		}
		p, err := nocdn.OpenPeer(cfg)
		if err != nil {
			return err
		}
		// SIGTERM stops the listener, then Close stops the loops and
		// persists the record queue and the disk tier.
		defer p.Close()
		if *cacheDir != "" {
			fmt.Printf("disk cache tier at %s (%d MB budget, %d MB segments)\n",
				*cacheDir, *diskCacheMB, *segmentMB)
		}
		origin := signUps[0][1]
		if *gossipInterval > 0 {
			fmt.Printf("gossiping neighbor health to %s every %v\n", origin, *gossipInterval)
		}
		if *telemetryInterval > 0 {
			fmt.Printf("shipping telemetry deltas to %s every %v\n", origin, *telemetryInterval)
		}
		fmt.Printf("nocdn peer %q on %s\n", *id, *listen)
		return serveUntilSignal(*listen, observabilityMux(*mode, p.Handler(), metrics, tracer, health), nil)
	case "load":
		if *originURL == "" {
			return fmt.Errorf("load mode requires -origin")
		}
		if *views < 1 {
			return fmt.Errorf("load mode wants -views >= 1, got %d", *views)
		}
		loader := &nocdn.Loader{
			OriginURL:    *originURL,
			ClientID:     *clientID,
			Concurrency:  *concurrency,
			FetchTimeout: *fetchTimeout,
			Retry:        faults.Policy{MaxAttempts: *retries},
			Metrics:      metrics,
			Tracer:       tracer,
			Health:       health,
			Brownout:     *brownout,
		}
		if *chaos != "" {
			transport, err := chaosTransport(*chaos, *chaosSeed, metrics)
			if err != nil {
				return err
			}
			loader.HTTPClient = &http.Client{Timeout: *fetchTimeout, Transport: transport}
		}
		return runLoads(os.Stdout, loader, *page, *views)
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
}

// chaosTransport builds the -chaos fault injector's transport for outbound
// fetches (a non-zero seed overrides the schedule's) and announces it.
func chaosTransport(schedule string, seed uint64, metrics *hpop.Metrics) (http.RoundTripper, error) {
	sched, err := faults.ParseSchedule(schedule)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	if seed != 0 {
		sched.Seed = seed
	}
	inj := faults.NewInjector(sched)
	inj.Metrics = metrics
	fmt.Printf("chaos: %d rule(s), seed %d on outbound fetches\n", len(sched.Rules), sched.Seed)
	return inj.Transport(nil), nil
}

// serveUntilSignal serves handler on addr until SIGINT/SIGTERM, then drains
// in-flight requests (bounded) and runs the optional drain hook — the
// graceful half of crash recovery: a clean stop leaves no work for replay.
func serveUntilSignal(addr string, handler http.Handler, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	errC := make(chan error, 1)
	go func() { errC <- srv.ListenAndServe() }()
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	select {
	case err := <-errC:
		return err
	case sig := <-sigC:
		fmt.Printf("%v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		if drain != nil {
			drain()
		}
		return nil
	}
}

// observabilityMux wraps a serving mode's handler with the observability
// endpoints on the same listener: /metrics, /healthz, /debug/traces,
// /debug/trace?id= and /debug/health (pprof stays behind -debug-addr).
// Provider objects at those exact paths are shadowed; use a dedicated
// -debug-addr listener if that matters.
func observabilityMux(mode string, app http.Handler, m *hpop.Metrics, t *hpop.Tracer, h *hpop.HealthRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", app)
	mux.HandleFunc("/metrics", hpop.MetricsHandler(m))
	mux.HandleFunc("/healthz", hpop.HealthHandler("nocdnd-"+mode, func() map[string]error {
		return map[string]error{mode: nil}
	}))
	mux.HandleFunc("/debug/traces", hpop.TracesHandler(t))
	mux.HandleFunc("/debug/trace", hpop.TraceHandler(t))
	mux.HandleFunc("/debug/health", h.Handler())
	return mux
}

// runLoads performs page views and prints per-view and aggregate stats.
func runLoads(out io.Writer, loader *nocdn.Loader, page string, views int) error {
	var totalBytes int64
	peerBytes := make(map[string]int64)
	start := time.Now()
	for v := 0; v < views; v++ {
		res, err := loader.LoadPage(page)
		if err != nil {
			return fmt.Errorf("view %d: %w", v+1, err)
		}
		totalBytes += res.TotalBytes()
		for id, n := range res.PeerBytes {
			peerBytes[id] += n
		}
		fmt.Fprintf(out, "view %d: %d objects, %d B, tamper=%v, fallbacks=%d, records=%d\n",
			v+1, len(res.Body), res.TotalBytes(), res.TamperDetected,
			len(res.FallbackObjects), res.RecordsDelivered)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "%d view(s) in %v (%.1f MB/s, concurrency %d)\n",
		views, elapsed.Round(time.Millisecond),
		float64(totalBytes)/1e6/elapsed.Seconds(), loader.Concurrency)
	for id, n := range peerBytes {
		fmt.Fprintf(out, "  peer %s served %d B\n", id, n)
	}
	return nil
}

// loadContent walks dir, registering every file as an object and each
// directory containing an index.html as a page.
func loadContent(o *nocdn.Origin, dir string) error {
	pages := make(map[string]*nocdn.Page)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		objPath := "/" + filepath.ToSlash(rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		o.AddObject(objPath, data)
		pageDir := filepath.ToSlash(filepath.Dir(rel))
		if pageDir == "." {
			pageDir = ""
		}
		pageName := pageDir
		if pageName == "" {
			pageName = "index"
		}
		p, ok := pages[pageName]
		if !ok {
			p = &nocdn.Page{Name: pageName}
			pages[pageName] = p
		}
		if filepath.Base(rel) == "index.html" {
			p.Container = objPath
		} else {
			p.Embedded = append(p.Embedded, objPath)
		}
		return nil
	})
	if err != nil {
		return err
	}
	registered := 0
	for _, p := range pages {
		if p.Container == "" {
			continue // directory without index.html: objects only
		}
		if err := o.AddPage(*p); err != nil {
			return err
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("no pages found under %s (need index.html files)", dir)
	}
	fmt.Printf("loaded %d page(s) from %s\n", registered, dir)
	return nil
}
