package rolag_test

import (
	"strings"
	"testing"

	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/obs"
	"rolag/internal/rolag"
)

// roll compiles src, runs RoLAG with opts (nil = defaults) and returns
// (original, rolled, stats).
func roll(t *testing.T, src string, opts *rolag.Options) (*ir.Module, *ir.Module, *rolag.Stats) {
	t.Helper()
	orig := compile(t, src)
	work := compile(t, src)
	stats := rolag.RollModule(work, opts)
	if err := work.Verify(); err != nil {
		t.Fatalf("verify after roll: %v\n%s", err, work)
	}
	return orig, work, stats
}

func mustEquiv(t *testing.T, orig, work *ir.Module, fn string) {
	t.Helper()
	if err := interp.CheckEquiv(orig, work, fn, 3, nil); err != nil {
		t.Errorf("@%s: %v\n%s", fn, err, work.FindFunc(fn))
	}
}

func TestSchedulingRejectsOverlappingStores(t *testing.T) {
	// The stores form two groups over the same base in an order the
	// lanes cannot be serialized into without swapping conflicting
	// accesses: a[1]=a[0]; a[0]=a[1] style ping-pong.
	src := `
void f(int *a) {
	a[1] = a[0] + 1;
	a[0] = a[1] + 2;
	a[3] = a[2] + 1;
	a[2] = a[3] + 2;
}`
	orig, work, stats := roll(t, src, nil)
	// Whether or not a profitable roll is found, behaviour must hold.
	mustEquiv(t, orig, work, "f")
	// The natural 4-lane grouping must have been rejected by the
	// scheduler or profitability; a 2-lane subgroup may legally roll,
	// but never one that swaps the RAW pairs.
	t.Logf("stats: rolled=%d scheduleFailed=%d", stats.LoopsRolled, stats.ScheduleFailed)
}

func TestSchedulingIndependentStoreBefore(t *testing.T) {
	// An independent store ahead of the pattern stays in the pre-loop
	// code; the roll proceeds.
	src := `
int g;
void f(int *a, int v) {
	g = 123;
	a[0] = v;
	a[1] = v;
	a[2] = v;
	a[3] = v;
	a[4] = v;
	a[5] = v;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Errorf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestSchedulingInterleavedMayAliasStoreBlocks(t *testing.T) {
	// A store to a possibly-aliasing object in the *middle* of the
	// pattern cannot move either way (the param could point at the
	// global), so the roll must be refused — and behaviour preserved.
	src := `
int g;
void f(int *a, int v) {
	a[0] = v;
	a[1] = v;
	g = 123;
	a[2] = v;
	a[3] = v;
	a[4] = v;
	a[5] = v;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 0 {
		t.Errorf("rolled %d, want 0 (conservative aliasing)\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestSchedulingRejectsCrossBoundaryCycle(t *testing.T) {
	// The call chain consumes a value computed from an earlier lane's
	// output through straight-line code — a circular dependence across
	// the loop boundary (§IV.D).
	src := `
extern int step(int x) pure;
int f(int a) {
	int r0 = step(a);
	int mid = r0 * 2 + 1;
	int r1 = step(mid);
	int mid2 = r1 * 3 + 1;
	int r2 = step(mid2);
	return r2;
}`
	orig, work, stats := roll(t, src, nil)
	mustEquiv(t, orig, work, "f")
	t.Logf("rolled=%d graphs=%d scheduleFailed=%d", stats.LoopsRolled, stats.GraphsBuilt, stats.ScheduleFailed)
}

func TestExternalUseMidLaneExtraction(t *testing.T) {
	// Lane 1's value is used after the pattern: the generator must
	// extract it through a stack array (not just the final lane).
	src := `
int g1; int g2;
void f(int *a, int v) {
	int x0 = v * 10;
	int x1 = v * 20;
	int x2 = v * 30;
	int x3 = v * 40;
	a[0] = x0; a[1] = x1; a[2] = x2; a[3] = x3;
	g1 = x1;
	g2 = x2;
}`
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	orig, work, stats := roll(t, src, opts)
	if stats.LoopsRolled == 0 {
		t.Fatalf("expected a roll\n%s", work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
	if !strings.Contains(work.FindFunc("f").String(), "roll.out") {
		t.Errorf("expected an extraction array:\n%s", work.FindFunc("f"))
	}
}

func TestExternalUseFinalLaneDirect(t *testing.T) {
	// Only the final lane escapes: no array needed, the loop's live-out
	// value is used directly.
	src := `
int g;
void f(int *a, int v) {
	int x0 = v + 1;
	int x1 = v + 2;
	int x2 = v + 3;
	int x3 = v + 4;
	a[0] = x0; a[1] = x1; a[2] = x2; a[3] = x3;
	g = x3;
}`
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	orig, work, stats := roll(t, src, opts)
	if stats.LoopsRolled == 0 {
		t.Fatalf("expected a roll\n%s", work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
	if strings.Contains(work.FindFunc("f").String(), "roll.out") {
		t.Errorf("final-lane-only escape should not allocate an array:\n%s", work.FindFunc("f"))
	}
}

func TestMismatchConstantsBecomeGlobalArray(t *testing.T) {
	// Irregular constants (no common stride) force a mismatch node; as
	// constants they should land in a read-only global, not a stack
	// array.
	src := `
void f(long *a) {
	a[0] = 1009; a[1] = 5021; a[2] = 2003; a[3] = 9049; a[4] = 4001;
	a[5] = 8087; a[6] = 3023; a[7] = 7039; a[8] = 6011; a[9] = 1097;
}`
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	orig, work, stats := roll(t, src, opts)
	if stats.LoopsRolled == 0 {
		t.Fatal("expected a roll")
	}
	if stats.NodeCounts[rolag.KindMismatch] == 0 {
		t.Errorf("expected a mismatch node: %v", stats.NodeCounts)
	}
	found := false
	for _, g := range work.Globals {
		if strings.HasPrefix(g.Name, "roll.cdata") && g.ReadOnly {
			found = true
		}
	}
	if !found {
		t.Error("expected a read-only constant pool global")
	}
	mustEquiv(t, orig, work, "f")
}

func TestMismatchDynamicBecomesStackArray(t *testing.T) {
	src := `
void f(long *a, long v, long w, long x, long y) {
	a[0] = v * 3; a[1] = w * 3; a[2] = x * 3; a[3] = y * 3;
}`
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	orig, work, stats := roll(t, src, opts)
	if stats.LoopsRolled == 0 {
		t.Fatal("expected a roll")
	}
	if !strings.Contains(work.FindFunc("f").String(), "roll.vdata") {
		t.Errorf("expected a stack mismatch array:\n%s", work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestProfitabilityGate(t *testing.T) {
	// Two stores: rolling always loses. The gate must refuse; AlwaysRoll
	// must force it.
	src := `void f(int *a, int v) { a[0] = v; a[1] = v; }`
	_, _, gated := roll(t, src, nil)
	if gated.LoopsRolled != 0 {
		t.Errorf("profitability should reject a 2-lane trivial roll (rolled %d)", gated.LoopsRolled)
	}
	if gated.NotProfitable == 0 {
		t.Error("expected a not-profitable rejection to be recorded")
	}
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	orig, work, forced := roll(t, src, opts)
	if forced.LoopsRolled != 1 {
		t.Errorf("AlwaysRoll should roll anyway (rolled %d)", forced.LoopsRolled)
	}
	mustEquiv(t, orig, work, "f")
}

func TestNeutralBinOpPadding(t *testing.T) {
	// Lane 0 stores v (no add), others store v+k: the neutral-element
	// rule treats v as v+0.
	src := `
void f(int *a, int v) {
	a[0] = v;
	a[1] = v + 3;
	a[2] = v + 6;
	a[3] = v + 9;
	a[4] = v + 12;
	a[5] = v + 15;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Fatalf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")

	// With the rule disabled the same function must fail or mismatch.
	noNeutral := rolag.DefaultOptions()
	noNeutral.EnableNeutralBinOp = false
	_, _, stats2 := roll(t, src, noNeutral)
	if stats2.LoopsRolled > 0 && stats2.NodeCounts[rolag.KindMismatch] == 0 {
		t.Error("without neutral binops this pattern needs a mismatch node (or no roll)")
	}
}

func TestCommutativeReordering(t *testing.T) {
	// Operands swap sides across lanes (loads cannot be CSE'd away, so
	// the lanes stay distinct); commutativity must realign them.
	src := `
void f(int *a, int *b, int v) {
	a[0] = b[0] * v;
	a[1] = v * b[1];
	a[2] = b[2] * v;
	a[3] = v * b[3];
	a[4] = b[4] * v;
	a[5] = v * b[5];
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Fatalf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")

	// Without the rule, the swapped operands cannot align into a clean
	// match; any roll must then lean on mismatch machinery.
	noComm := rolag.DefaultOptions()
	noComm.EnableCommutative = false
	noComm.EnableMismatch = false
	_, _, s2 := roll(t, src, noComm)
	if s2.LoopsRolled != 0 {
		t.Errorf("without commutative reordering the pattern should not roll cleanly (rolled %d)", s2.LoopsRolled)
	}
}

func TestGepStructAsArray(t *testing.T) {
	// Homogeneous struct indexed by varying fields: rolled via bitcast +
	// flat index (Fig. 4b).
	src := `
struct H { int a; int b; int c; int d; int e; int f; };
void f(struct H *h, int v) {
	h->a = v; h->b = v; h->c = v; h->d = v; h->e = v; h->f = v;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Fatalf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	if !strings.Contains(work.FindFunc("f").String(), "bitcast") {
		t.Errorf("expected struct-as-array bitcast:\n%s", work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestHeterogeneousStructNotRolled(t *testing.T) {
	// Mixed field types break the homogeneity requirement; the graph
	// must refuse the gep merge (and the function must stay correct).
	src := `
struct X { int a; long b; int c; long d; };
void f(struct X *x) {
	x->a = 1; x->b = 2; x->c = 3; x->d = 4;
}`
	orig, work, _ := roll(t, src, nil)
	mustEquiv(t, orig, work, "f")
}

func TestAblationFlagsDisableKinds(t *testing.T) {
	seqSrc := `void f(int *a) { a[0]=10; a[1]=12; a[2]=14; a[3]=16; a[4]=18; a[5]=20; }`
	noSeq := rolag.DefaultOptions()
	noSeq.EnableIntSeq = false
	noSeq.EnableMismatch = false
	_, _, s := roll(t, seqSrc, noSeq)
	if s.NodeCounts[rolag.KindIntSeq] != 0 {
		t.Error("sequence nodes must be disabled")
	}

	redSrc := `int f(const int *a) { return a[0]+a[1]+a[2]+a[3]+a[4]+a[5]; }`
	noRed := rolag.DefaultOptions()
	noRed.EnableReduction = false
	_, _, s2 := roll(t, redSrc, noRed)
	if s2.LoopsRolled != 0 {
		t.Error("reduction rolling must be disabled")
	}
	_, _, s3 := roll(t, redSrc, nil)
	if s3.LoopsRolled != 1 {
		t.Errorf("reduction should roll with defaults (got %d)", s3.LoopsRolled)
	}

	recSrc := `
extern int fm(int r, int v) pure;
int f(int r0, int *p) {
	int r = fm(r0, p[0]);
	r = fm(r, p[1]);
	r = fm(r, p[2]);
	r = fm(r, p[3]);
	r = fm(r, p[4]);
	return r;
}`
	noRec := rolag.DefaultOptions()
	noRec.EnableRecurrence = false
	_, _, s4 := roll(t, recSrc, noRec)
	if s4.NodeCounts[rolag.KindRecurrence] != 0 {
		t.Error("recurrence nodes must be disabled")
	}
	orig, work, s5 := roll(t, recSrc, nil)
	if s5.NodeCounts[rolag.KindRecurrence] == 0 {
		t.Errorf("recurrence expected with defaults: %v", s5.NodeCounts)
	}
	mustEquiv(t, orig, work, "f")
}

func TestMultipleGroupsInOneBlock(t *testing.T) {
	// Two sequential (non-interleaved) store runs: both roll, producing
	// two loops.
	src := `
void f(int *a, int *b, int v) {
	a[0] = v; a[1] = v; a[2] = v; a[3] = v; a[4] = v; a[5] = v; a[6] = v; a[7] = v;
	b[0] = 7; b[1] = 9; b[2] = 11; b[3] = 13; b[4] = 15; b[5] = 17; b[6] = 19; b[7] = 21;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 2 {
		t.Errorf("rolled %d loops, want 2\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestVoidCallsRoll(t *testing.T) {
	src := `
extern void put(int x);
void f(int base) {
	put(base + 2);
	put(base + 4);
	put(base + 6);
	put(base + 8);
	put(base + 10);
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Fatalf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestDifferentCalleesDontRoll(t *testing.T) {
	src := `
extern void pa(int x);
extern void pb(int x);
void f(int v) { pa(v); pb(v+1); pa(v+2); pb(v+3); }`
	orig, work, stats := roll(t, src, nil)
	// pa and pb groups are 2 lanes each and interleave; a joint roll is
	// legal but unprofitable at 2 lanes; equivalence must hold whatever
	// the decision.
	mustEquiv(t, orig, work, "f")
	t.Logf("rolled=%d", stats.LoopsRolled)
}

func TestRollInsideLoopBody(t *testing.T) {
	// The seed block is itself a loop body (the TSVC case): rolling
	// creates a nested inner loop and rewires the outer backedge.
	src := `
void f(int *a, int n) {
	for (int j = 0; j < n; j++) {
		a[0] = j; a[1] = j + 1; a[2] = j + 2; a[3] = j + 3;
		a[4] = j + 4; a[5] = j + 5; a[6] = j + 6; a[7] = j + 7;
	}
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 1 {
		t.Fatalf("rolled %d, want 1\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

func TestStatsAccounting(t *testing.T) {
	src := `void f(int *a, int v) { a[0] = v; a[1] = v; a[2] = v; a[3] = v; a[4] = v; a[5] = v; }`
	_, _, stats := roll(t, src, nil)
	if stats.BlocksScanned == 0 || stats.SeedGroups == 0 || stats.GraphsBuilt == 0 {
		t.Errorf("stats not accounted: %+v", stats)
	}
	if stats.LoopsRolled == 1 && stats.InstrsRolled == 0 {
		t.Error("InstrsRolled must count matched instructions")
	}
	// Add must merge stats.
	total := rolag.NewStats()
	total.Add(stats)
	total.Add(stats)
	if total.LoopsRolled != 2*stats.LoopsRolled {
		t.Error("Stats.Add broken")
	}
}

// TestRejectedAttemptKeepsLoopBlockSkipped pins that RoLAG never rescans
// a loop block it generated, even after a later attempt on the same
// block is rejected and the body restored. The shape is AnghaBench's
// call sequence behind an arithmetic chain: the calls roll into
// roll.loop, the revisited entry then offers a chain seed that is not
// profitable, and the function must keep the loop block's identity
// through that rollback for the skip set to recognise it.
func TestRejectedAttemptKeepsLoopBlockSkipped(t *testing.T) {
	src := `
int g;
extern void sink2(char *p, int x);
void f(char *p) {
	int c0 = g + 25;
	int c1 = c0 + 81;
	int c2 = c1 ^ 30;
	int c3 = c2 | 5;
	int c4 = c3 | 94;
	int c5 = c4 + 18;
	int c6 = c5 ^ 61;
	g = c6;
	sink2(p + 0, 0);
	sink2(p + 8, 1);
	sink2(p + 16, 2);
	sink2(p + 24, 3);
}`
	m := compile(t, src)
	f := m.FindFunc("f")
	c := &obs.Collector{}
	stats := rolag.RollFuncInto(f, nil, nil, nil, &obs.Recorder{Remarks: c})
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after roll: %v\n%s", err, f)
	}
	if stats.LoopsRolled != 1 || stats.NotProfitable != 1 {
		t.Fatalf("want 1 roll and 1 rejected attempt, got %+v\n%s", stats, f)
	}
	var names []string
	for _, b := range f.Blocks {
		names = append(names, b.Name)
	}
	if got := strings.Join(names, " "); got != "entry roll.loop roll.exit" {
		t.Fatalf("blocks = %q, want entry roll.loop roll.exit", got)
	}
	// entry twice (the roll, then the revisit whose attempt is rejected)
	// and roll.exit once; a scan of roll.loop would make it 4.
	if stats.BlocksScanned != 3 {
		t.Errorf("BlocksScanned = %d, want 3: the generated loop block was rescanned", stats.BlocksScanned)
	}
	for _, rm := range c.Remarks() {
		if strings.HasPrefix(rm.Block, "roll.loop") {
			t.Errorf("remark on generated loop block: %+v", rm)
		}
	}
}
