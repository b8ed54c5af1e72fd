package analysis_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"rolag/internal/analysis"
	"rolag/internal/cc"
	"rolag/internal/ir"
	"rolag/internal/passes"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// fixpointDom is the iterative set formulation of dominance, the
// oracle for ir.DomTree and analysis.ComputeDom: dom[b] starts full
// (the entry's at {entry}), and is the intersection of its
// predecessors' sets plus b until nothing changes. Immediate
// dominators, the tree and the frontiers are read off the sets. Where
// a block has several immediate-dominator candidates (only blocks no
// root reaches) the choice follows map order, and the chosen
// immediate dominators can form a cycle, on which the frontier walk
// never ends; so the frontiers are computed only on request.
type fixpointDom struct {
	dom      map[*ir.Block]map[*ir.Block]bool
	idom     map[*ir.Block]*ir.Block
	children map[*ir.Block][]*ir.Block
	frontier map[*ir.Block][]*ir.Block
}

func computeFixpointDom(f *ir.Func, withFrontier bool) *fixpointDom {
	entry := f.Entry()
	all := f.Blocks
	dom := make(map[*ir.Block]map[*ir.Block]bool, len(all))
	for _, b := range all {
		if b == entry {
			dom[b] = map[*ir.Block]bool{b: true}
			continue
		}
		full := make(map[*ir.Block]bool, len(all))
		for _, x := range all {
			full[x] = true
		}
		dom[b] = full
	}
	preds := make(map[*ir.Block][]*ir.Block)
	for _, b := range all {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range all {
			if b == entry {
				continue
			}
			var inter map[*ir.Block]bool
			for _, p := range preds[b] {
				if inter == nil {
					inter = make(map[*ir.Block]bool, len(dom[p]))
					for k := range dom[p] {
						inter[k] = true
					}
					continue
				}
				for k := range inter {
					if !dom[p][k] {
						delete(inter, k)
					}
				}
			}
			if inter == nil {
				inter = make(map[*ir.Block]bool)
			}
			inter[b] = true
			if !sameBlockSet(inter, dom[b]) {
				dom[b] = inter
				changed = true
			}
		}
	}

	fd := &fixpointDom{
		dom:      dom,
		idom:     make(map[*ir.Block]*ir.Block),
		children: make(map[*ir.Block][]*ir.Block),
		frontier: make(map[*ir.Block][]*ir.Block),
	}
	// idom(b): the dominator d != b dominated by every other strict
	// dominator of b.
	for _, b := range all {
		if b == entry {
			continue
		}
		var idom *ir.Block
		for d := range dom[b] {
			if d == b {
				continue
			}
			candidate := true
			for e := range dom[b] {
				if e == b || e == d {
					continue
				}
				if !dom[d][e] {
					candidate = false
					break
				}
			}
			if candidate {
				idom = d
				break
			}
		}
		if idom != nil {
			fd.idom[b] = idom
			fd.children[idom] = append(fd.children[idom], b)
		}
	}
	for _, b := range all {
		if !withFrontier || len(preds[b]) < 2 {
			continue
		}
		for _, p := range preds[b] {
			runner := p
			for runner != nil && runner != fd.idom[b] {
				if !slices.Contains(fd.frontier[runner], b) {
					fd.frontier[runner] = append(fd.frontier[runner], b)
				}
				if runner == entry {
					break
				}
				runner = fd.idom[runner]
			}
		}
	}
	return fd
}

func sameBlockSet(a, b map[*ir.Block]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// rootReached returns the blocks reached from the entry or from a block
// without predecessors: the virtual root's reach.
func rootReached(f *ir.Func) map[*ir.Block]bool {
	hasPred := make(map[*ir.Block]bool)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			hasPred[s] = true
		}
	}
	seen := make(map[*ir.Block]bool)
	var work []*ir.Block
	for i, b := range f.Blocks {
		if i == 0 || !hasPred[b] {
			seen[b] = true
			work = append(work, b)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// checkDomAgainstFixpoint compares ComputeDom with the fixpoint oracle:
// Dominates on every pair; IDom and the children among reached blocks
// for every block the virtual root reaches; and, when the root reaches
// every block (so the oracle's choices are all forced), the frontier
// of every block in order.
func checkDomAgainstFixpoint(t *testing.T, label string, f *ir.Func) {
	t.Helper()
	reached := rootReached(f)
	want := computeFixpointDom(f, len(reached) == len(f.Blocks))
	got := analysis.ComputeDom(f)
	for _, a := range f.Blocks {
		for _, b := range f.Blocks {
			if g, w := got.Dominates(a, b), want.dom[b][a]; g != w {
				t.Fatalf("%s: Dominates(%s, %s) = %v, fixpoint %v\n%s", label, a.Name, b.Name, g, w, f)
			}
		}
	}
	for _, b := range f.Blocks {
		if !reached[b] {
			continue
		}
		if g, w := got.IDom[b], want.idom[b]; g != w {
			t.Fatalf("%s: IDom(%s) = %v, fixpoint %v\n%s", label, b.Name, blockName(g), blockName(w), f)
		}
		var wantKids []*ir.Block
		for _, c := range want.children[b] {
			if reached[c] {
				wantKids = append(wantKids, c)
			}
		}
		if g := got.Children[b]; !slices.Equal(g, wantKids) {
			t.Fatalf("%s: Children(%s) = %v, fixpoint %v\n%s", label, b.Name, blockNames(g), blockNames(wantKids), f)
		}
		if len(reached) == len(f.Blocks) {
			if g, w := got.Frontier[b], want.frontier[b]; !slices.Equal(g, w) {
				t.Fatalf("%s: Frontier(%s) = %v, fixpoint %v\n%s", label, b.Name, blockNames(g), blockNames(w), f)
			}
		}
	}
}

func blockName(b *ir.Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

func blockNames(bs []*ir.Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// randomCFG returns the successor lists of a random CFG of 1 to 8
// blocks: a nil list returns, one target branches, two condbr (both
// targets may be equal, and any target may be the block itself).
// Blocks without predecessors and cycles entered from nowhere arise
// freely.
func randomCFG(rng *rand.Rand) [][]int {
	n := 1 + rng.IntN(8)
	succs := make([][]int, n)
	for i := range succs {
		switch r := rng.IntN(10); {
		case r < 2:
		case r < 5:
			succs[i] = []int{rng.IntN(n)}
		default:
			t := rng.IntN(n)
			e := t
			if rng.IntN(4) != 0 {
				e = rng.IntN(n)
			}
			succs[i] = []int{t, e}
		}
	}
	return succs
}

// buildCFG builds a function over the CFG. With def and use >= 0,
// block def defines %v and block use reads it before its terminator.
func buildCFG(succs [][]int, def, use int) *ir.Func {
	m := ir.NewModule("m")
	c := &ir.Param{Name: "c", Typ: ir.I1}
	x := &ir.Param{Name: "x", Typ: ir.I32}
	f := m.NewFunc("f", ir.Void, c, x)
	blocks := make([]*ir.Block, len(succs))
	for i := range blocks {
		blocks[i] = f.NewBlock(fmt.Sprintf("b%d", i))
	}
	var v *ir.Instr
	if def >= 0 {
		v = ir.NewBuilder(blocks[def]).Add(x, x)
	}
	for i, ss := range succs {
		bd := ir.NewBuilder(blocks[i])
		if i == use {
			bd.Add(v, x)
		}
		switch len(ss) {
		case 0:
			bd.Ret(nil)
		case 1:
			bd.Br(blocks[ss[0]])
		default:
			bd.CondBr(c, blocks[ss[0]], blocks[ss[1]])
		}
	}
	return f
}

// TestDominatorsMatchFixpoint differentially tests the dominator tree
// against the fixpoint oracle on random CFGs, and checks the verifier
// rejects exactly the uses the oracle says their definition does not
// dominate.
func TestDominatorsMatchFixpoint(t *testing.T) {
	rng := rand.New(rand.NewPCG(2001, 2))
	for iter := 0; iter < 20000; iter++ {
		succs := randomCFG(rng)
		f := buildCFG(succs, -1, -1)
		label := fmt.Sprintf("cfg %d %v", iter, succs)
		checkDomAgainstFixpoint(t, label, f)
		if iter%10 != 0 {
			continue
		}
		want := computeFixpointDom(f, false)
		for a := range succs {
			for b := range succs {
				if a == b {
					continue
				}
				g := buildCFG(succs, a, b)
				err := g.Verify()
				if dominated := want.dom[f.Blocks[b]][f.Blocks[a]]; dominated != (err == nil) {
					t.Fatalf("%s: def in b%d, use in b%d: fixpoint dominated=%v, Verify: %v\n%s", label, a, b, dominated, err, g)
				}
			}
		}
	}
}

// TestDominatorsMatchFixpointCorpora runs the differential over every
// function of the TSVC and angha corpora, as the frontend emits it and
// after canonicalization.
func TestDominatorsMatchFixpointCorpora(t *testing.T) {
	type unit struct{ name, src string }
	var units []unit
	for _, k := range tsvc.Kernels() {
		units = append(units, unit{k.Name, k.Src})
	}
	for _, fn := range angha.Generate(2000, 1) {
		units = append(units, unit{fn.Name, fn.Src})
	}
	for _, u := range units {
		m, err := cc.Compile(u.src, u.name)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		check := func(stage string) {
			for _, f := range m.Funcs {
				if !f.IsDecl() {
					checkDomAgainstFixpoint(t, u.name+"/"+stage+"/"+f.Name, f)
				}
			}
		}
		check("frontend")
		passes.Standard().Run(m)
		check("canonical")
	}
}
