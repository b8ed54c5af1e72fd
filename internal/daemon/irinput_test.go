package daemon

// Textual-IR input end to end: every serving path (the engine with and
// without its cache, and rolagd over HTTP) must
// answer an "ir": true request exactly as a fail-hard facade build of
// the same IR does, and the degraded reports of fault-injected IR
// compiles are pinned. Requests go through rolagdapi.ToService, the
// mapping rolagd itself uses.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/faultpoint"
	"rolag/internal/fuzzgen"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// irOutput is what the parity test compares.
type irOutput struct {
	IR, Asm                   string
	TextBytes                 int64
	SizeBefore, SizeAfter     int
	BinaryBefore, BinaryAfter int
}

// printedIR returns the canonical, un-rolled IR of a mini-C source as
// the printer writes it: the input an "ir": true request carries.
func printedIR(t *testing.T, src string) string {
	t.Helper()
	res, err := rolag.Build(src, rolag.Config{Opt: rolag.OptNone})
	if err != nil {
		t.Fatal(err)
	}
	return res.Module.String()
}

// facadeIR builds textual IR fail-hard through the facade and lowers it.
func facadeIR(t *testing.T, src string, cfg rolag.Config) irOutput {
	t.Helper()
	cfg.IRInput = true
	res, err := rolag.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := backend.Compile(res.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	return irOutput{res.Module.String(), r.Asm(), r.Code.Text,
		res.SizeBefore, res.SizeAfter, res.BinaryBefore, res.BinaryAfter}
}

// TestIRInputMatchesFacade: for the printed IR of every TSVC kernel and
// 200 angha functions, under RoLAG, unroll 8 + flatten and LLVM
// rerolling, each serving path returns the IR, assembly, .text bytes
// and four sizes of a fail-hard facade build of the same IR.
func TestIRInputMatchesFacade(t *testing.T) {
	var srcs []string
	for _, k := range tsvc.Kernels() {
		srcs = append(srcs, printedIR(t, k.Src))
	}
	for _, fn := range angha.Generate(200, 1) {
		srcs = append(srcs, printedIR(t, fn.Src))
	}
	configs := []rolagdapi.CompileConfig{
		{Opt: "rolag"},
		{Opt: "rolag", Unroll: 8, Flatten: true},
		{Opt: "llvm"},
	}
	wire := make([]rolagdapi.CompileRequest, 0, len(srcs)*len(configs))
	reqs := make([]service.Request, 0, cap(wire))
	want := make([]irOutput, 0, cap(wire))
	for _, c := range configs {
		for _, src := range srcs {
			cr := rolagdapi.CompileRequest{Source: src, IR: true, Config: c, Format: "asm"}
			req, err := cr.ToService()
			if err != nil {
				t.Fatal(err)
			}
			wire = append(wire, cr)
			reqs = append(reqs, req)
			want = append(want, facadeIR(t, src, req.Config))
		}
	}
	check := func(path string, i int, got irOutput, degraded bool) {
		t.Helper()
		if degraded {
			t.Fatalf("%s: request %d degraded", path, i)
		}
		if got != want[i] {
			t.Fatalf("%s: request %d (config %+v) differs from the facade build:\ngot  %+v\nwant %+v",
				path, i, wire[i].Config, got, want[i])
		}
	}
	for _, ec := range []struct {
		name string
		cfg  service.Config
	}{
		{"fail-soft", service.Config{Workers: 2}},
		{"fail-soft-nocache", service.Config{Workers: 2, CacheEntries: -1}},
	} {
		e := service.New(ec.cfg)
		for i, item := range e.CompileBatch(context.Background(), reqs) {
			if item.Err != nil {
				t.Fatalf("%s: request %d: %v", ec.name, i, item.Err)
			}
			r := item.Resp
			check(ec.name, i, irOutput{r.IR, r.Asm, r.TextBytes,
				r.SizeBefore, r.SizeAfter, r.BinaryBefore, r.BinaryAfter}, r.Degraded != nil)
		}
		e.Close(context.Background())
	}
	srv := newTestServer(t)
	for i, cr := range wire {
		body, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out CompileResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("rolagd: request %d: HTTP %d: %v", i, resp.StatusCode, err)
		}
		check("rolagd", i, irOutput{out.IR, out.Asm, out.TextBytes,
			out.SizeBefore, out.SizeAfter, out.BinaryBefore, out.BinaryAfter}, out.Degraded)
	}
}

// irDegradedPinned lists, one per line, the Degraded entries
// ("<program> <pass> <func> <reason>") of irDegradedLines, taken when
// IR input was canonicalized under a sandbox of its own before the rest
// of the pipeline ran under a second one.
const irDegradedPinned = "testdata/ir-degraded.txt"

// irDegradedLines compiles the printed IR of 60 generated programs
// through a fail-soft engine with every pass site armed at 5% under a
// fixed seed, for panic, error and corrupt faults, and returns the
// Degraded entries in report order. One worker, no cache and breakers
// that never open keep the fault draws in one fixed order.
func irDegradedLines(t *testing.T) []string {
	srcs := make([]string, 60)
	for i := range srcs {
		srcs[i] = printedIR(t, fuzzgen.Generate(int64(3000+i), 40))
	}
	e := service.New(service.Config{Workers: 1, CacheEntries: -1, BreakerThreshold: 1 << 30,
		PassBudget: fuzzgen.DefaultChaosBudget})
	defer e.Close(context.Background())
	defer faultpoint.Reset()
	faultpoint.EnableSites("pass:", faultpoint.Options{
		Seed:  7,
		Prob:  0.05,
		Kinds: []faultpoint.Kind{faultpoint.KindPanic, faultpoint.KindError, faultpoint.KindCorrupt},
	})
	configs := []rolagdapi.CompileConfig{
		{Opt: "rolag"},
		{Opt: "rolag", Unroll: 8, Flatten: true},
	}
	var lines []string
	for i, src := range srcs {
		cr := rolagdapi.CompileRequest{Source: src, IR: true, Config: configs[i%len(configs)]}
		req, err := cr.ToService()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := e.Compile(context.Background(), req)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if resp.Degraded == nil {
			continue
		}
		for _, sk := range resp.Degraded.Skips {
			lines = append(lines, fmt.Sprintf("%d %s %s %s", i, sk.Pass, sk.Func, sk.Reason))
		}
	}
	return lines
}

// TestIRDegradedPinned: fault-injected IR compiles report exactly the
// pinned (pass, function, reason) entries, in the pinned order.
func TestIRDegradedPinned(t *testing.T) {
	raw, err := os.ReadFile(irDegradedPinned)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := irDegradedLines(t)
	if len(got) == 0 {
		t.Fatal("no degraded entries: the fault campaign injected nothing")
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("degraded entries differ (%d entries, want %d):\n--- got ---\n%s\n--- want ---\n%s", len(got), len(want), g, w)
	}
}

// TestIRRequestTracesEveryPass: an IR request records as many "pass:"
// spans as the mini-C request it was printed from, because both run
// canonicalization and cleanup under the request's traced sandbox.
func TestIRRequestTracesEveryPass(t *testing.T) {
	tracingOn(t)
	srv := newTestServer(t)
	passSpans := func(id string, cr rolagdapi.CompileRequest) int {
		t.Helper()
		body, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", srv.URL+"/v1/compile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: HTTP %d", resp.StatusCode)
		}
		tresp, err := http.Get(srv.URL + "/debug/trace?trace=" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		var chrome struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.NewDecoder(tresp.Body).Decode(&chrome); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range chrome.TraceEvents {
			if strings.HasPrefix(ev.Name, "pass:") {
				n++
			}
		}
		return n
	}
	c := passSpans("0000000000c0ffee", rolagdapi.CompileRequest{Source: testSrc})
	ir := passSpans("0000000000beef00", rolagdapi.CompileRequest{Source: printedIR(t, testSrc), IR: true})
	if c == 0 || ir != c {
		t.Fatalf("IR request recorded %d pass spans, the mini-C request %d", ir, c)
	}
}
