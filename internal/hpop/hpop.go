package hpop

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hpop/internal/nat"
)

// Lifecycle errors.
var (
	ErrAlreadyStarted = errors.New("hpop: already started")
	ErrNotStarted     = errors.New("hpop: not started")
	ErrDuplicateName  = errors.New("hpop: duplicate service name")
)

// Config describes one appliance.
type Config struct {
	// Name labels this HPoP ("smith-family").
	Name string
	// ListenAddr is the HTTP bind address; empty means an ephemeral
	// 127.0.0.1 port (tests, examples).
	ListenAddr string
	// NAT describes the network situation for reachability planning.
	NAT nat.Endpoint
}

// ServiceContext is handed to services at start.
type ServiceContext struct {
	// Mux is the appliance's HTTP mux; services attach handlers under their
	// own prefixes ("/dav/", "/nocdn/", ...).
	Mux *http.ServeMux
	// Metrics is the shared metrics registry.
	Metrics *Metrics
	// Tracer is the shared request tracer (span ring buffer).
	Tracer *Tracer
	// Events is the appliance event log.
	Events *EventLog
	// Health is the shared peer-health registry (breaker state, latency
	// quantiles, saturation), served at /debug/health.
	Health *HealthRegistry
	// Config is the appliance configuration.
	Config Config
}

// Service is a pluggable HPoP capability. The HPoP is "an extensible and
// configurable platform that can also run myriad mundane services".
type Service interface {
	// Name identifies the service uniquely within one HPoP.
	Name() string
	// Start attaches the service; it must not block.
	Start(ctx *ServiceContext) error
	// Stop releases service resources.
	Stop() error
}

// EventLog is a bounded in-memory log of appliance events.
type EventLog struct {
	mu     sync.Mutex
	events []Event
	max    int
	now    func() time.Time
}

// Event is one log entry.
type Event struct {
	At      time.Time `json:"at"`
	Service string    `json:"service"`
	Message string    `json:"message"`
}

// NewEventLog creates a log bounded to max entries (default 1024).
func NewEventLog(max int, now func() time.Time) *EventLog {
	if max <= 0 {
		max = 1024
	}
	if now == nil {
		now = time.Now
	}
	return &EventLog{max: max, now: now}
}

// Logf appends a formatted event.
func (l *EventLog) Logf(service, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{
		At:      l.now(),
		Service: service,
		Message: fmt.Sprintf(format, args...),
	})
	if len(l.events) > l.max {
		l.events = l.events[len(l.events)-l.max:]
	}
}

// Recent returns up to n most recent events, oldest first.
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.events) {
		n = len(l.events)
	}
	out := make([]Event, n)
	copy(out, l.events[len(l.events)-n:])
	return out
}

// HPoP is the appliance.
type HPoP struct {
	cfg     Config
	metrics *Metrics
	tracer  *Tracer
	events  *EventLog
	health  *HealthRegistry

	mu       sync.Mutex
	services []Service
	started  bool
	mux      *http.ServeMux
	server   *http.Server
	listener net.Listener
}

// New creates an appliance from config.
func New(cfg Config) *HPoP {
	if cfg.Name == "" {
		cfg.Name = "hpop"
	}
	h := &HPoP{
		cfg:     cfg,
		metrics: NewMetrics(),
		tracer:  NewTracer(0),
		events:  NewEventLog(0, nil),
		health:  NewHealthRegistry(BreakerConfig{}),
		mux:     http.NewServeMux(),
	}
	h.health.SetMetrics(h.metrics)
	return h
}

// Metrics returns the shared registry.
func (h *HPoP) Metrics() *Metrics { return h.metrics }

// Tracer returns the shared request tracer.
func (h *HPoP) Tracer() *Tracer { return h.tracer }

// Events returns the appliance event log.
func (h *HPoP) Events() *EventLog { return h.events }

// HealthRegistry returns the shared peer-health registry.
func (h *HPoP) HealthRegistry() *HealthRegistry { return h.health }

// Health reports per-service readiness, as served by /healthz. Useful for
// wiring the same view onto a second listener (see cmd/hpopd -debug-addr).
func (h *HPoP) Health() map[string]error { return h.healthSnapshot() }

// Name returns the appliance label.
func (h *HPoP) Name() string { return h.cfg.Name }

// Register adds a service. All registrations must happen before Start.
func (h *HPoP) Register(s Service) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return ErrAlreadyStarted
	}
	for _, existing := range h.services {
		if existing.Name() == s.Name() {
			return ErrDuplicateName
		}
	}
	h.services = append(h.services, s)
	return nil
}

// Start brings up all services and the HTTP front end. Services start in
// registration order; a failure stops already-started services and returns
// the error.
func (h *HPoP) Start() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return ErrAlreadyStarted
	}
	ctx := &ServiceContext{
		Mux:     h.mux,
		Metrics: h.metrics,
		Tracer:  h.tracer,
		Events:  h.events,
		Health:  h.health,
		Config:  h.cfg,
	}
	for i, s := range h.services {
		if err := s.Start(ctx); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = h.services[j].Stop()
			}
			return fmt.Errorf("start service %s: %w", s.Name(), err)
		}
		h.events.Logf(s.Name(), "started")
	}
	h.mux.HandleFunc("/status", h.handleStatus)
	h.mux.HandleFunc("/metrics", MetricsHandler(h.metrics))
	h.mux.HandleFunc("/healthz", HealthHandler(h.cfg.Name, h.healthSnapshot))
	h.mux.HandleFunc("/debug/traces", TracesHandler(h.tracer))
	h.mux.HandleFunc("/debug/trace", TraceHandler(h.tracer))
	h.mux.HandleFunc("/debug/health", h.health.Handler())

	addr := h.cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		for j := len(h.services) - 1; j >= 0; j-- {
			_ = h.services[j].Stop()
		}
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	h.listener = ln
	h.server = &http.Server{Handler: h.mux}
	go h.server.Serve(ln) // Serve returns on Close; error intentionally dropped
	h.started = true
	h.events.Logf("hpop", "online at %s", ln.Addr())
	return nil
}

// Stop shuts down the HTTP server and all services (reverse order).
func (h *HPoP) Stop(ctx context.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.started {
		return ErrNotStarted
	}
	var firstErr error
	if err := h.server.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	for i := len(h.services) - 1; i >= 0; i-- {
		if err := h.services[i].Stop(); err != nil && firstErr == nil {
			firstErr = err
		}
		h.events.Logf(h.services[i].Name(), "stopped")
	}
	h.started = false
	return firstErr
}

// URL returns the appliance's base URL ("http://127.0.0.1:PORT"). Only valid
// after Start.
func (h *HPoP) URL() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.listener == nil {
		return ""
	}
	return "http://" + h.listener.Addr().String()
}

// PlanReachability applies §III's traversal ladder for a client with the
// given NAT situation.
func (h *HPoP) PlanReachability(client nat.Endpoint) nat.Plan {
	return nat.PlanTraversal(h.cfg.NAT, client)
}

// healthSnapshot reports per-service readiness: services implementing
// HealthChecker answer for themselves; the rest are healthy by virtue of
// having started (Start rolls back on any failure, so a serving appliance
// only hosts started services).
func (h *HPoP) healthSnapshot() map[string]error {
	h.mu.Lock()
	services := append([]Service(nil), h.services...)
	h.mu.Unlock()
	out := make(map[string]error, len(services))
	for _, s := range services {
		if hc, ok := s.(HealthChecker); ok {
			out[s.Name()] = hc.Healthy()
		} else {
			out[s.Name()] = nil
		}
	}
	return out
}

// statusResponse is the /status JSON shape.
type statusResponse struct {
	Name     string             `json:"name"`
	Services []string           `json:"services"`
	Metrics  map[string]float64 `json:"metrics"`
	Events   []Event            `json:"recentEvents"`
}

func (h *HPoP) handleStatus(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	names := make([]string, 0, len(h.services))
	for _, s := range h.services {
		names = append(names, s.Name())
	}
	h.mu.Unlock()
	resp := statusResponse{
		Name:     h.cfg.Name,
		Services: names,
		Metrics:  h.metrics.Snapshot(),
		Events:   h.events.Recent(20),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// FuncService adapts start/stop closures to the Service interface — handy
// for small built-in services ("a contacts server, a calendar server") and
// tests.
type FuncService struct {
	ServiceName string
	OnStart     func(*ServiceContext) error
	OnStop      func() error
}

var _ Service = (*FuncService)(nil)

// Name implements Service.
func (f *FuncService) Name() string { return f.ServiceName }

// Start implements Service.
func (f *FuncService) Start(ctx *ServiceContext) error {
	if f.OnStart == nil {
		return nil
	}
	return f.OnStart(ctx)
}

// Stop implements Service.
func (f *FuncService) Stop() error {
	if f.OnStop == nil {
		return nil
	}
	return f.OnStop()
}
