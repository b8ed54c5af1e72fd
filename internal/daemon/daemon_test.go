package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rolag/internal/faultpoint"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

type CompileResponse = rolagdapi.CompileResponse

func newTestDaemon(t *testing.T, cfg service.Config, requestCap time.Duration) (*Daemon, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	d := New(Config{Engine: cfg, RequestCap: requestCap})
	t.Cleanup(func() { d.Close(context.Background()) })
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)
	return srv
}

const testSrc = `void f(int *a) {
  a[0] = a[0] + 1;
  a[1] = a[1] + 1;
  a[2] = a[2] + 1;
  a[3] = a[3] + 1;
}`

func postCompile(t *testing.T, srv *httptest.Server, body string) (*http.Response, CompileResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out CompileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestCompileEndpoint(t *testing.T) {
	srv := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"source": testSrc})
	resp, out := postCompile(t, srv, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.IR == "" {
		t.Error("missing IR in response")
	}
	if out.BinaryBefore == 0 || out.BinaryAfter == 0 {
		t.Errorf("missing sizes: %+v", out)
	}
	if out.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if out.Degraded {
		t.Errorf("healthy compile reported degraded: %+v", out.DegradedPasses)
	}

	// Identical request → cache hit, identical IR.
	resp2, out2 := postCompile(t, srv, string(body))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if !out2.CacheHit {
		t.Error("second request missed the cache")
	}
	if out2.IR != out.IR {
		t.Error("cached IR differs")
	}
}

// TestCompileFormatAsm posts format=asm and checks the assembly and
// measured .text size come back on the wire, plus the emit counter.
func TestCompileFormatAsm(t *testing.T) {
	srv := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"source": testSrc, "format": "asm"})
	resp, out := postCompile(t, srv, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Asm == "" || !strings.Contains(out.Asm, "f:") {
		t.Errorf("missing assembly in response: %q", out.Asm)
	}
	if out.TextBytes <= 0 {
		t.Errorf("textBytes = %d, want > 0", out.TextBytes)
	}

	badBody, _ := json.Marshal(map[string]any{"source": testSrc, "format": "elf"})
	if resp, _ := postCompile(t, srv, string(badBody)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mb), `rolagd_emit_total{format="asm"} 1`) {
		t.Errorf("metrics missing asm emit counter:\n%s", mb)
	}
}

func TestCompileEndpointErrors(t *testing.T) {
	srv := newTestServer(t)

	resp, _ := postCompile(t, srv, `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postCompile(t, srv, `{"source":"void f() {}","config":{"opt":"wat"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad opt: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postCompile(t, srv, `{"source":"int f( {"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("compile error: status %d, want 422", resp.StatusCode)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	srv := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"source": testSrc})
	postCompile(t, srv, string(body))

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status  string                  `json:"status"`
		Metrics service.MetricsSnapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Metrics.Requests == 0 {
		t.Errorf("unexpected health: %+v", health)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"rolagd_requests_total", "rolagd_cache_hits_total",
		"rolagd_compile_seconds_bucket{le=\"+Inf\"}", "rolagd_loops_rolled_total",
		"rolagd_degraded_total", "rolagd_breaker_open_total", "rolagd_shed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestDegradedResponse injects one pass failure and checks that the
// response flags it, names the pass, and that the degraded counters
// reach /metrics.
func TestDegradedResponse(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	srv := newTestServer(t)

	faultpoint.Arm("pass:constfold", faultpoint.KindError, 1)
	body, _ := json.Marshal(map[string]any{"source": testSrc, "config": map[string]any{"name": "degraded"}})
	resp, out := postCompile(t, srv, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Degraded {
		t.Fatal("injected pass failure not reported as degraded")
	}
	found := false
	for _, p := range out.DegradedPasses {
		if p == "constfold" {
			found = true
		}
	}
	if !found {
		t.Errorf("degradedPasses = %v, want to contain constfold", out.DegradedPasses)
	}
	if out.IR == "" {
		t.Error("degraded compile returned no IR")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	if !strings.Contains(text, "rolagd_degraded_total 1") {
		t.Error("metrics missing rolagd_degraded_total 1")
	}
	if !strings.Contains(text, `rolagd_pass_skipped_total{pass="constfold"} 1`) {
		t.Error("metrics missing rolagd_pass_skipped_total for constfold")
	}
}

// TestShedding429 saturates a MaxInFlight=1 daemon with a stalled
// compile and checks the next request is shed with 429 + Retry-After.
func TestShedding429(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	d, srv := newTestDaemon(t, service.Config{
		Workers: 1, MaxInFlight: 1, CacheEntries: -1,
	}, 10*time.Second)

	faultpoint.Enable(faultpoint.Options{Seed: 1, Prob: 0, Stall: 800 * time.Millisecond})
	faultpoint.Arm(faultpoint.EngineRun, faultpoint.KindStall, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(map[string]any{"source": testSrc})
		resp, err := http.Post(srv.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the stalled request to occupy the admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for d.engine.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, _ := json.Marshal(map[string]any{"source": "void g() {}"})
	resp, err := http.Post(srv.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After")
	}
	wg.Wait()

	if shed := d.engine.Metrics().Shed; shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
}

// TestReadyzDrainOnSIGTERM replicates main's signal wiring: on SIGTERM
// /readyz flips to 503 while /healthz stays 200 until the process
// exits.
func TestReadyzDrainOnSIGTERM(t *testing.T) {
	d, srv := newTestDaemon(t, service.Config{}, 10*time.Second)

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before drain: %d, want 200", got)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never delivered")
	}
	d.BeginDrain()

	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain: %d, want 200", got)
	}
}

// TestReadyzBreakerDark opens the rolag breaker with injected failures
// and checks readiness goes dark while liveness stays up.
func TestReadyzBreakerDark(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	d, srv := newTestDaemon(t, service.Config{
		Workers: 1, BreakerThreshold: 1, CacheEntries: -1,
	}, 10*time.Second)

	faultpoint.Arm("pass:rolag", faultpoint.KindError, 1)
	body, _ := json.Marshal(map[string]any{"source": testSrc})
	resp, out := postCompile(t, srv, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Degraded {
		t.Fatal("injected rolag failure not reported as degraded")
	}
	if !d.engine.Dark() {
		t.Fatal("engine not breaker-dark after threshold-1 rolag failure")
	}

	rresp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while breaker-dark: %d, want 503", rresp.StatusCode)
	}
	var ready struct {
		Status   string                `json:"status"`
		Breakers []service.BreakerInfo `json:"breakers"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "breaker-dark" {
		t.Errorf("readyz status %q, want breaker-dark", ready.Status)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while breaker-dark: %d, want 200", hresp.StatusCode)
	}
}

// TestRequestTimeout bounds a stalled compile with the body's timeoutMs
// and expects 504.
func TestRequestTimeout(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, srv := newTestDaemon(t, service.Config{Workers: 1, CacheEntries: -1}, 10*time.Second)

	faultpoint.Enable(faultpoint.Options{Seed: 1, Prob: 0, Stall: 500 * time.Millisecond})
	faultpoint.Arm(faultpoint.EngineRun, faultpoint.KindStall, 1)

	body := fmt.Sprintf(`{"source":%q,"timeoutMs":50}`, testSrc)
	resp, _ := postCompile(t, srv, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestEffectiveTimeout(t *testing.T) {
	cases := []struct {
		requestMs int
		cap, want time.Duration
	}{
		{0, 30 * time.Second, 30 * time.Second},       // no request value → cap
		{0, 0, 0},                                     // nothing set → no deadline
		{50, 30 * time.Second, 50 * time.Millisecond}, // request below cap
		{60_000, 30 * time.Second, 30 * time.Second},  // clamped to cap
		{60_000, 0, 60_000 * time.Millisecond},        // no cap → as given
		{-5, 10 * time.Second, 10 * time.Second},      // negative ignored
	}
	for _, c := range cases {
		if got := effectiveTimeout(c.requestMs, c.cap); got != c.want {
			t.Errorf("effectiveTimeout(%d, %v) = %v, want %v", c.requestMs, c.cap, got, c.want)
		}
	}
}

// sizedBody returns JSON of exactly n bytes: prefix, a source string
// padded with spaces, then suffix. The config names an unknown opt so
// an accepted body fails fast in ToService instead of compiling.
func sizedBody(n int, prefix, suffix string) string {
	head := prefix + `{"source":"`
	tail := `","config":{"opt":"wat"}}` + suffix
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// TestBodyLimit: /v1/compile and /v1/batch accept a body of exactly
// rolagdapi.MaxBodyBytes, answer one byte more with 413 and the
// body-too-large code, and count each refusal on /metrics.
func TestBodyLimit(t *testing.T) {
	srv := newTestServer(t)
	post := func(path, body string) (int, rolagdapi.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er rolagdapi.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}
	for _, c := range []struct {
		path, prefix, suffix string
		fits                 int
	}{
		{"/v1/compile", "", "", http.StatusBadRequest},
		{"/v1/batch", `{"items":[`, `]}`, http.StatusOK},
	} {
		if code, _ := post(c.path, sizedBody(rolagdapi.MaxBodyBytes, c.prefix, c.suffix)); code != c.fits {
			t.Errorf("%s at the limit: status %d, want %d", c.path, code, c.fits)
		}
		code, er := post(c.path, sizedBody(rolagdapi.MaxBodyBytes+1, c.prefix, c.suffix))
		if code != http.StatusRequestEntityTooLarge || er.Code != rolagdapi.CodeBodyTooLarge {
			t.Errorf("%s one byte over: status %d code %q, want 413 %q", c.path, code, er.Code, rolagdapi.CodeBodyTooLarge)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if want := `rolagd_rejected_total{reason="body-too-large"} 2`; !strings.Contains(string(raw), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestUnrollLimit: config.unroll at rolagdapi.MaxUnroll compiles, one
// more is a 400 with the unroll-out-of-range code on /v1/compile and
// the same code on the batch item, which leaves its neighbour alone.
func TestUnrollLimit(t *testing.T) {
	srv := newTestServer(t)
	const src = `void f(int *a) { for (int i = 0; i < 32; i++) a[i] = i; }`
	item := func(unroll int) string {
		return fmt.Sprintf(`{"source":%q,"config":{"unroll":%d}}`, src, unroll)
	}
	post := func(path, body string, v any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	var ok rolagdapi.CompileResponse
	if code := post("/v1/compile", item(rolagdapi.MaxUnroll), &ok); code != http.StatusOK {
		t.Fatalf("unroll at the cap: status %d", code)
	}
	var er rolagdapi.ErrorResponse
	code := post("/v1/compile", item(rolagdapi.MaxUnroll+1), &er)
	if code != http.StatusBadRequest || er.Code != rolagdapi.CodeUnrollOutOfRange {
		t.Errorf("unroll one over the cap: status %d code %q, want 400 %q", code, er.Code, rolagdapi.CodeUnrollOutOfRange)
	}
	var br rolagdapi.BatchResponse
	body := `{"items":[` + item(rolagdapi.MaxUnroll) + `,` + item(rolagdapi.MaxUnroll+1) + `]}`
	if code := post("/v1/batch", body, &br); code != http.StatusOK || len(br.Items) != 2 {
		t.Fatalf("batch: status %d, %d items", code, len(br.Items))
	}
	if it := br.Items[0]; it.Error != "" || it.IR != ok.IR {
		t.Errorf("batch item at the cap: error %q, IR matches compile: %v", it.Error, it.IR == ok.IR)
	}
	if it := br.Items[1]; it.Code != rolagdapi.CodeUnrollOutOfRange || it.Error == "" {
		t.Errorf("batch item over the cap: error %q code %q, want code %q", it.Error, it.Code, rolagdapi.CodeUnrollOutOfRange)
	}
}
