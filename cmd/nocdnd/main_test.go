package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

func TestKVFlags(t *testing.T) {
	var f kvFlags
	if err := f.Set("a=http://x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("b=http://y"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("malformed"); err == nil {
		t.Error("malformed pair accepted")
	}
	if len(f.pairs) != 2 || f.pairs[1][0] != "b" {
		t.Errorf("pairs = %v", f.pairs)
	}
	if f.String() == "" {
		t.Error("String empty")
	}
}

func writeSite(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html>root</html>"), 0o600))
	must(os.WriteFile(filepath.Join(dir, "style.css"), []byte("body{}"), 0o600))
	must(os.MkdirAll(filepath.Join(dir, "blog"), 0o700))
	must(os.WriteFile(filepath.Join(dir, "blog", "index.html"), []byte("<html>blog</html>"), 0o600))
	must(os.WriteFile(filepath.Join(dir, "blog", "post.jpg"), []byte("jpegdata"), 0o600))
	return dir
}

func TestLoadContent(t *testing.T) {
	dir := writeSite(t)
	o := nocdn.NewOrigin("t", nocdn.WithRNG(sim.NewRNG(1)))
	if err := loadContent(o, dir); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("p", "http://p", 1)
	// Root page: index.html + style.css.
	w, err := o.AssignWrapper("index", "c")
	if err != nil {
		t.Fatal(err)
	}
	if w.Container.Path != "/index.html" || len(w.Objects) != 1 {
		t.Errorf("root wrapper = %+v", w)
	}
	// Subdirectory page.
	w, err = o.AssignWrapper("blog", "c")
	if err != nil {
		t.Fatal(err)
	}
	if w.Container.Path != "/blog/index.html" || len(w.Objects) != 1 {
		t.Errorf("blog wrapper = %+v", w)
	}
}

func TestLoadContentNoPages(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "loose.txt"), []byte("x"), 0o600)
	o := nocdn.NewOrigin("t")
	if err := loadContent(o, dir); err == nil {
		t.Error("directory without index.html accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-mode", "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := run([]string{"-mode", "origin"}); err == nil {
		t.Error("origin without -content accepted")
	}
	if err := run([]string{"-mode", "peer", "-provider", "malformed-no-equals", "-listen", "127.0.0.1:0"}); err == nil {
		t.Error("malformed provider pair accepted")
	}
	// A '|' would split a usage record's leaf into the wrong fields.
	for _, args := range [][]string{
		{"-mode", "origin", "-provider", "ex|ample.com"},
		{"-mode", "origin", "-peer", "peer|a=http://127.0.0.1:1"},
		{"-mode", "peer", "-id", "peer|a", "-provider", "example.com=http://x"},
		{"-mode", "peer", "-provider", "ex|ample.com=http://x"},
	} {
		if err := run(args); !errors.Is(err, nocdn.ErrFieldSeparator) {
			t.Errorf("run %q = %v, want ErrFieldSeparator", args, err)
		}
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-mode", "load"}); err == nil {
		t.Error("load without -origin accepted")
	}
	if err := run([]string{"-mode", "load", "-origin", "http://x", "-views", "0"}); err == nil {
		t.Error("load with zero views accepted")
	}
}

// TestMetricsObservabilityMux checks the serving modes' wrapped mux: the
// application handler keeps working at "/" while /metrics, /healthz and
// /debug/traces answer on the same listener.
func TestMetricsObservabilityMux(t *testing.T) {
	dir := writeSite(t)
	o := nocdn.NewOrigin("t", nocdn.WithRNG(sim.NewRNG(1)))
	if err := loadContent(o, dir); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("p", "http://p", 1)
	metrics := hpop.NewMetrics()
	tracer := hpop.NewTracer(0)
	o.SetMetrics(metrics)
	srv := httptest.NewServer(observabilityMux("origin", o.Handler(), metrics, tracer, hpop.NewHealthRegistry(hpop.BreakerConfig{})))
	defer srv.Close()

	get := func(path string, wantStatus int, wantIn string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		if !strings.Contains(string(body), wantIn) {
			t.Errorf("GET %s missing %q in: %.200s", path, wantIn, body)
		}
	}
	// The origin still answers through the wrapper route...
	get("/wrapper?page=index", http.StatusOK, `"page"`)
	// ...and the wrapper generation above landed in the histogram.
	get("/metrics", http.StatusOK, "# TYPE nocdn.origin.wrapper_seconds histogram")
	get("/healthz", http.StatusOK, `"nocdnd-origin"`)
	get("/debug/traces", http.StatusOK, `"spans"`)
	// pprof stays off the serving listener (only -debug-addr exposes it).
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the serving listener")
	}
}

func TestLoadMode(t *testing.T) {
	dir := writeSite(t)
	o := nocdn.NewOrigin("t", nocdn.WithRNG(sim.NewRNG(1)))
	if err := loadContent(o, dir); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	p := nocdn.NewPeer("p", 0)
	p.SignUp("t", originSrv.URL)
	peerSrv := httptest.NewServer(p.Handler())
	defer peerSrv.Close()
	o.RegisterPeer("p", peerSrv.URL, 1)

	var out bytes.Buffer
	loader := &nocdn.Loader{OriginURL: originSrv.URL, Concurrency: 4}
	if err := runLoads(&out, loader, "index", 2); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"view 1:", "view 2:", "2 view(s)", "peer p served"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if err := runLoads(&out, loader, "ghost", 1); err == nil {
		t.Error("unknown page load succeeded")
	}
}
