// Command hpopd runs a home point of presence: the data attic (WebDAV at
// /dav plus the grant portal at /attic/grants), a NoCDN peer (reverse proxy
// at /nocdn), a DCol waypoint relay on its own TCP port, and the /status
// endpoint.
//
// Usage:
//
//	hpopd -listen 127.0.0.1:8080 -owner alice -password secret \
//	      -relay 127.0.0.1:9090 -nocdn-provider example.com -nocdn-origin http://origin:8000
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"hpop/internal/attic"
	"hpop/internal/dcol"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/pim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpopd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpopd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	owner := fs.String("owner", "owner", "attic owner username")
	password := fs.String("password", "", "attic owner password (required)")
	name := fs.String("name", "hpop", "appliance name")
	relayAddr := fs.String("relay", "", "DCol waypoint relay listen address (empty: disabled)")
	withPIM := fs.Bool("pim", true, "serve the contacts/calendar/inbox services")
	quotaMB := fs.Int("quota-mb", 0, "attic storage quota in MB (0 = unlimited)")
	maxPutMB := fs.Int("max-put-mb", 0, "max single WebDAV upload in MB (0 = default 256)")
	peerID := fs.String("nocdn-peer", "", "NoCDN peer ID (empty: disabled)")
	providers := fs.String("nocdn-provider", "", "comma-separated provider=originURL pairs to serve")
	cacheMB := fs.Int("nocdn-cache-mb", 64, "NoCDN peer memory cache size in MB")
	cacheDir := fs.String("cache-dir", "",
		"NoCDN peer disk cache tier directory (empty: memory-only)")
	diskCacheMB := fs.Int("disk-cache-mb", 1024,
		"NoCDN peer disk cache budget in MB (needs -cache-dir)")
	segmentMB := fs.Int("segment-mb", 64,
		"NoCDN peer disk cache segment rotation size in MB")
	fetchTimeout := fs.Duration("fetch-timeout", nocdn.DefaultPeerFetchTimeout,
		"per-request timeout for NoCDN peer fetches and DCol relay dials")
	maxInflight := fs.Int("nocdn-max-inflight", 0,
		"NoCDN peer: max simultaneous proxy requests before shedding with 503 (0 = default)")
	telemetryInterval := fs.Duration("nocdn-telemetry-interval", 0,
		"NoCDN peer: ship metric delta reports to the first provider's origin on this cadence (0 = disabled)")
	scrubInterval := fs.Duration("scrub-interval", 0,
		"attic scrub-and-repair pass cadence (0 = hourly default)")
	debugAddr := fs.String("debug-addr", "",
		"serve pprof plus /metrics, /healthz and /debug/traces on a second listener (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *password == "" {
		return fmt.Errorf("-password is required")
	}

	h := hpop.New(hpop.Config{Name: *name, ListenAddr: *listen})

	var atticOpts []attic.Option
	if *quotaMB > 0 {
		atticOpts = append(atticOpts, attic.WithQuota(*quotaMB<<20))
	}
	if *maxPutMB > 0 {
		atticOpts = append(atticOpts, attic.WithMaxPutBytes(int64(*maxPutMB)<<20))
	}
	a := attic.New(*owner, *password, atticOpts...)
	if err := h.Register(a); err != nil {
		return err
	}
	if *withPIM {
		for _, svc := range []hpop.Service{
			pim.NewContacts(a.FS()),
			pim.NewCalendar(a.FS()),
			pim.NewInbox(a.FS(), nil),
		} {
			if err := h.Register(svc); err != nil {
				return err
			}
		}
	}

	// Background scrub-and-repair over whatever backup engine gets attached
	// (none at boot — the service idles but its attic.scrub.* counters are
	// exported immediately, so dashboards and CI can assert the family).
	scrubber := &attic.Scrubber{Interval: *scrubInterval}
	if err := h.Register(scrubber); err != nil {
		return err
	}

	if *peerID != "" {
		// A name holding a leaf's separator could never settle a record.
		if err := nocdn.CheckName(*peerID); err != nil {
			return fmt.Errorf("-nocdn-peer: %w", err)
		}
		signUps, err := nocdn.ParseProviders(*providers)
		if err != nil {
			return fmt.Errorf("-nocdn-provider: %w", err)
		}
		cfg := nocdn.PeerConfig{
			ID:             *peerID,
			Providers:      signUps,
			CacheBytes:     *cacheMB << 20,
			FetchTimeout:   *fetchTimeout,
			MaxInflight:    *maxInflight,
			StateDir:       *cacheDir,
			DiskCacheBytes: int64(*diskCacheMB) << 20,
			SegmentBytes:   int64(*segmentMB) << 20,
			// The appliance's one scrub cadence covers both the attic
			// placements and the peer's segment store.
			ScrubInterval:     *scrubInterval,
			TelemetryInterval: *telemetryInterval,
		}
		var peer *nocdn.Peer
		svc := &hpop.FuncService{
			ServiceName: "nocdn-peer",
			OnStart: func(ctx *hpop.ServiceContext) error {
				cfg.Metrics, cfg.Tracer = ctx.Metrics, ctx.Tracer
				var err error
				if peer, err = nocdn.OpenPeer(cfg); err != nil {
					return err
				}
				ctx.Mux.Handle("/nocdn/", http.StripPrefix("/nocdn", peer.Handler()))
				if *cacheDir != "" {
					ctx.Events.Logf("nocdn-peer", "disk cache tier at %s (%d MB)", *cacheDir, *diskCacheMB)
				}
				if *telemetryInterval > 0 && len(signUps) > 0 {
					ctx.Events.Logf("nocdn-peer", "shipping telemetry deltas to %s every %v",
						signUps[0][1], *telemetryInterval)
				}
				return nil
			},
			OnStop: func() error {
				peer.Close()
				return nil
			},
		}
		if err := h.Register(svc); err != nil {
			return err
		}
	}

	var relay *dcol.Relay
	if *relayAddr != "" {
		svc := &hpop.FuncService{
			ServiceName: "dcol-waypoint",
			OnStart: func(ctx *hpop.ServiceContext) error {
				var err error
				relay, err = dcol.StartRelayTimeout(*relayAddr, *fetchTimeout)
				if err != nil {
					return err
				}
				relay.SetMetrics(ctx.Metrics)
				relay.SetTracer(ctx.Tracer)
				ctx.Events.Logf("dcol-waypoint", "relaying on %s", relay.Addr())
				return nil
			},
			OnStop: func() error {
				if relay != nil {
					return relay.Close()
				}
				return nil
			},
		}
		if err := h.Register(svc); err != nil {
			return err
		}
	}

	// Register the signal handler before going online so that a SIGTERM
	// arriving the instant the HTTP surface answers is never fatal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if err := h.Start(); err != nil {
		return err
	}
	a.SetBaseURL(h.URL())
	fmt.Printf("hpopd %q online at %s (DAV at %s%s)\n", *name, h.URL(), h.URL(), attic.DAVPrefix)
	if relay != nil {
		fmt.Printf("DCol waypoint relay at %s\n", relay.Addr())
	}
	var debugSrv *http.Server
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			h.Stop(context.Background())
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: hpop.DebugMux(*name, h.Metrics(), h.Tracer(), h.Health, h.HealthRegistry())}
		go debugSrv.Serve(ln)
		fmt.Printf("debug endpoints (pprof, /metrics, /healthz, /debug/traces) at http://%s/\n", ln.Addr())
	}
	<-sig
	fmt.Println("shutting down")
	if debugSrv != nil {
		debugSrv.Close()
	}
	return h.Stop(context.Background())
}
