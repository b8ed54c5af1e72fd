package rolag_test

// Determinism contract of Config.Remarks: the remark stream must be
// byte-identical across runs, because remarks travel through the
// service cache and into committed experiment artifacts — any
// run-varying byte would poison both.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/obs"
	"rolag/internal/workloads/angha"
)

// remarkStream builds every source under cfg and returns the
// concatenated remark stream serialized with obs.WriteJSON.
func remarkStream(t *testing.T, srcs []string, cfg rolag.Config) []byte {
	t.Helper()
	var all []rolag.Remark
	for i, src := range srcs {
		res, err := rolag.Build(src, cfg)
		if err != nil {
			t.Fatalf("src %d: %v", i, err)
		}
		all = append(all, res.Remarks...)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, all); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loopSource synthesizes nf functions with countable for-loops, the
// shape the unroll-then-reroll pipeline needs: the corpus and
// multiFuncSource are straight-line code, on which Config.Unroll is a
// no-op and the reroll pass has nothing to remark about.
func loopSource(nf int) string {
	var b strings.Builder
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&b, "int lf%d(int *a) {\n\tint s = 0;\n\tfor (int i = 0; i < %d; i++) s += a[i];\n\treturn s;\n}\n",
			i, 16+4*i)
	}
	return b.String()
}

// TestRemarksDeterministic: two independent runs over 50 corpus
// functions must serialize to byte-identical JSON. The corpus is big
// enough to hit every remark kind (rolled, not-profitable, seed,
// align-node, reroll on the reroll config below), so a timestamp,
// pointer, or map-iteration leak anywhere in the emission path fails
// here rather than in a flaky diff downstream.
func TestRemarksDeterministic(t *testing.T) {
	srcs := make([]string, 0, 51)
	for _, fn := range angha.Generate(50, 20220402) {
		srcs = append(srcs, fn.Src)
	}
	srcs = append(srcs, loopSource(6))
	for _, tc := range []struct {
		name string
		cfg  rolag.Config
	}{
		{"rolag", rolag.Config{Opt: rolag.OptRoLAG, Remarks: true}},
		{"rolag-failsoft", rolag.Config{Opt: rolag.OptRoLAG, Remarks: true, FailSoft: true}},
		{"reroll-unroll4", rolag.Config{Opt: rolag.OptLLVMReroll, Unroll: 4, Remarks: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := remarkStream(t, srcs, tc.cfg)
			b := remarkStream(t, srcs, tc.cfg)
			if !bytes.Equal(a, b) {
				t.Errorf("remark streams differ between runs\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
			// Guard against a vacuous pass: the corpus must actually
			// produce remarks, including at least one applied
			// transformation of the technique under test.
			if bytes.Equal(a, []byte("[]\n")) {
				t.Fatal("corpus produced no remarks; the test is measuring nothing")
			}
			passedName := `"name": "rolled"`
			if tc.cfg.Opt == rolag.OptLLVMReroll {
				passedName = `"name": "rerolled"`
			}
			if !bytes.Contains(a, []byte(passedName)) {
				t.Errorf("no %s remark across the corpus; corpus or emitter drifted", passedName)
			}
		})
	}
}

// TestRemarksExplainNamesRejection pins the acceptance criterion of the
// observability work: a function the optimizer declines to roll must
// yield a missed remark with a concrete machine-readable reason and
// instruction-level provenance, and obs.Explain must surface it.
func TestRemarksExplainNamesRejection(t *testing.T) {
	// Four structurally different stores (the examples/c/irregular.c
	// shape): seeds group on the consecutive addresses, but the lanes
	// disagree structurally, so the roll degrades to mismatch nodes and
	// the cost model rejects it as not profitable.
	src := `void irregular(int *a, int x, int y) {
	a[0] = x * 5;
	a[1] = x + y;
	a[2] = y ^ 12;
	a[3] = x - 7;
}
`
	res, err := rolag.Build(src, rolag.Config{Opt: rolag.OptRoLAG, Remarks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.LoopsRolled != 0 {
		t.Fatalf("test premise broken: function rolled (stats: %+v)", res.Stats)
	}
	var miss *rolag.Remark
	for i := range res.Remarks {
		if res.Remarks[i].Status == obs.StatusMissed {
			miss = &res.Remarks[i]
			break
		}
	}
	if miss == nil {
		t.Fatalf("no missed remark for a rejected roll; remarks: %+v", res.Remarks)
	}
	if miss.Reason == "" {
		t.Errorf("missed remark has no machine-readable reason: %+v", *miss)
	}
	if miss.Instr == "" {
		t.Errorf("missed remark has no instruction provenance: %+v", *miss)
	}
	var buf bytes.Buffer
	obs.Explain(&buf, res.Remarks, "irregular")
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("MISSED")) {
		t.Errorf("Explain output names no MISSED decision:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte(miss.Reason)) {
		t.Errorf("Explain output omits the rejection reason %q:\n%s", miss.Reason, out)
	}
}

// TestReductionRemarksCarryLeafCount: a reduction's trip count is its
// chain length, so its seed, rolled and not-profitable remarks report
// the number of leaves, not the one root instruction of its seed group.
func TestReductionRemarksCarryLeafCount(t *testing.T) {
	src := `int sum8(int *a) { return a[0]+a[1]+a[2]+a[3]+a[4]+a[5]+a[6]+a[7]; }
int mix3(int x, int y, int z) { return x*3 + y*5 + z*7; }
`
	res, err := rolag.Build(src, rolag.Config{Opt: rolag.OptRoLAG, Remarks: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"sum8": 8, "mix3": 3}
	seen := map[string]bool{}
	for _, r := range res.Remarks {
		if r.Name != "seed" && r.Name != "rolled" && r.Name != "not-profitable" {
			continue
		}
		if !strings.HasSuffix(r.Kind, "reduction") {
			t.Fatalf("premise: %s remark of %s has kind %q, want a reduction", r.Name, r.Func, r.Kind)
		}
		seen[r.Func+"/"+r.Name] = true
		if r.Lanes != want[r.Func] {
			t.Errorf("%s remark of %s: lanes %d, want %d leaves", r.Name, r.Func, r.Lanes, want[r.Func])
		}
	}
	for _, k := range []string{"sum8/seed", "sum8/rolled", "mix3/seed", "mix3/not-profitable"} {
		if !seen[k] {
			t.Errorf("no %s remark; stream: %+v", k, res.Remarks)
		}
	}
}
