package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback ports the kernel just found
// unused. A fixed port can be held in TIME_WAIT by another package's test
// connections, which makes the daemon's bind fail.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "-password") {
		t.Errorf("missing password err = %v", err)
	}
	if err := run([]string{"-password", "x", "-nocdn-peer", "p", "-nocdn-provider", "malformed"}); err == nil {
		t.Error("malformed provider pair accepted")
	}
	if err := run([]string{"-unknown-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// A peer or provider name holding '|' could never travel in a leaf. It
	// must fail before the daemon binds; a run that boots instead is cut
	// off by the timeout rather than left to serve.
	for _, args := range [][]string{
		{"-nocdn-peer", "peer|x"},
		{"-nocdn-peer", "p", "-nocdn-provider", "a|b=http://127.0.0.1:9"},
	} {
		done := make(chan error, 1)
		go func() {
			done <- run(append([]string{"-listen", "127.0.0.1:0", "-password", "x"}, args...))
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
				t.Errorf("run %v = %v, want an error naming %s", args, err, args[len(args)-2])
			}
		case <-time.After(5 * time.Second):
			t.Errorf("run %v booted a peer whose records could never settle", args)
		}
	}
}

// TestMetricsDebugAddrEndpoints boots the daemon with -debug-addr and
// -scrub-interval and checks the second listener serves the full debug
// surface (pprof and the health registry included) while the main listener
// keeps serving /metrics and /healthz.
func TestMetricsDebugAddrEndpoints(t *testing.T) {
	addrs := freeAddrs(t, 2)
	addr, debugAddr := addrs[0], addrs[1]
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", addr,
			"-password", "pw",
			"-name", "probe-debug",
			"-scrub-interval", "1s",
			"-debug-addr", debugAddr,
		})
	}()

	var err error
	for i := 0; i < 100; i++ {
		var resp *http.Response
		resp, err = http.Get("http://" + debugAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("debug listener never came up: %v", err)
	}

	get := func(base, path, want string) {
		t.Helper()
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", base, path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s%s status = %d", base, path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s%s missing %q in: %.200s", base, path, want, body)
		}
	}
	// Prime a metric: even an unauthorized DAV probe is timed by the attic.
	if resp, err := http.Get("http://" + addr + "/dav/"); err == nil {
		resp.Body.Close()
	}
	get(debugAddr, "/metrics", "# TYPE attic.request_seconds histogram")
	get(debugAddr, "/healthz", `"status":"ok"`)
	get(debugAddr, "/debug/traces", `"spans"`)
	get(debugAddr, "/debug/pprof/", "profiles")
	// The attic scrubber exports its counter family from boot.
	get(debugAddr, "/metrics", "attic.scrub.repaired")
	// The health registry snapshot answers on the debug listener.
	resp, err := http.Get("http://" + debugAddr + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if _, isArray := health["peers"].([]any); err != nil || !isArray {
		t.Errorf("/debug/health = %v (%v), want a peers array", health, err)
	}
	// The appliance's own mux serves the observability trio too (no pprof).
	get(addr, "/metrics", "# TYPE")
	get(addr, "/healthz", `"probe-debug"`)
	get(addr, "/debug/traces", `"spans"`)

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestFullDaemonLifecycle boots the daemon with every service enabled on
// loopback, probes its HTTP surface, and shuts it down with SIGTERM (signal
// handling is registered before the listener opens, so the signal is
// race-free once /status answers).
func TestFullDaemonLifecycle(t *testing.T) {
	addrs := freeAddrs(t, 2)
	addr, relayAddr := addrs[0], addrs[1]
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", addr,
			"-password", "pw",
			"-name", "probe",
			"-relay", relayAddr,
			"-nocdn-peer", "test-peer",
		})
	}()

	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/status")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("status never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"probe"`, "attic", "nocdn-peer", "dcol-waypoint"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("status body missing %q: %s", want, body)
		}
	}

	// DAV surface answers (401 without credentials is proof of life).
	resp, err = http.Get(fmt.Sprintf("http://%s/dav/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("anonymous DAV status = %d, want 401", resp.StatusCode)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}
