package rolag

import (
	"rolag/internal/costmodel"
	"rolag/internal/ir"
)

// rollBound returns a lower bound on the cost delta of rolling g under
// sched (the rolled function's cost, rodata included, minus the
// original's) in model m's bytes, from the graph and the schedule
// alone (§IV.F). When it is already ≥ 0 the roll cannot be profitable,
// and it is rejected without generating the loop.
//
// The bound counts what codegen removes, every matched instruction as
// it stands, against a floor on what codegen adds:
//   - the loop skeleton: the latch increment and compare, the back
//     branch and the preheader's branch into the loop;
//   - for an all-constant mismatch node, the load of element iv and
//     the constant table;
//   - for any other mismatch node, the load of element iv and the
//     preheader store of each lane into the stack array;
//   - for a reduction, the accumulating operation (a compare and a
//     select for min/max).
//
// Every term is priced by m on a detached instruction of the shape
// codegen emits; the rest of what codegen adds costs ≥ 0 and is left
// out. TestRollBoundSound checks the bound against the exact delta.
func rollBound(g *Graph, sched *Schedule, m *costmodel.Model) int {
	lanes := g.Root.Lanes()
	iv := &ir.Instr{Op: ir.OpPhi, Typ: ir.I64}
	next := &ir.Instr{Op: ir.OpAdd, Typ: ir.I64, Operands: []ir.Value{iv, ir.ConstInt(ir.I64, 1)}}
	cmp := &ir.Instr{Op: ir.OpICmp, Typ: ir.I1, Pred: ir.PredSLT, Operands: []ir.Value{next, ir.ConstInt(ir.I64, int64(lanes))}}
	delta := m.Instr(next) + m.Instr(cmp) + m.Instr(&ir.Instr{Op: ir.OpCondBr}) + m.Instr(&ir.Instr{Op: ir.OpBr})

	// A mismatch array's element iv, read in the loop, and element k,
	// written in the preheader: the model sees only whether an index
	// is a nonzero constant.
	zero, one := ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 1)
	load := m.Instr(&ir.Instr{Op: ir.OpLoad, Operands: []ir.Value{&ir.Instr{Op: ir.OpGEP, Operands: []ir.Value{iv, zero, iv}}}})
	store0 := &ir.Instr{Op: ir.OpStore, Operands: []ir.Value{nil, &ir.Instr{Op: ir.OpGEP, Operands: []ir.Value{iv, zero, zero}}}}
	storeK := &ir.Instr{Op: ir.OpStore, Operands: []ir.Value{nil, &ir.Instr{Op: ir.OpGEP, Operands: []ir.Value{iv, zero, one}}}}
	for _, n := range sched.Emission {
		switch n.Kind {
		case KindMismatch:
			delta += load
			if allConstScalar(n) {
				delta += ir.ArrayOf(len(n.Vals), n.Vals[0].Type()).Size()
				continue
			}
			for k, v := range n.Vals {
				st := storeK
				if k == 0 {
					st = store0
				}
				st.Operands[0] = v
				delta += m.Instr(st)
			}
		case KindReduction:
			// The child's generated value stands in as a non-constant.
			acc := &ir.Instr{Op: ir.OpPhi, Typ: n.RedRoot.Typ}
			if n.MinMaxPred != ir.PredInvalid {
				delta += m.Instr(&ir.Instr{Op: n.MinMaxCmp, Typ: ir.I1, Pred: n.MinMaxPred, Operands: []ir.Value{iv, acc}})
				delta += m.Instr(&ir.Instr{Op: ir.OpSelect, Typ: acc.Typ, Operands: []ir.Value{cmp, iv, acc}})
				continue
			}
			delta += m.Instr(&ir.Instr{Op: n.RedOp, Typ: acc.Typ, Operands: []ir.Value{acc, iv}})
		}
	}
	for in := range g.Matched {
		delta -= m.Instr(in)
	}
	return delta
}

// burnCodegenNames advances f's name counter exactly as
// GenerateLoop(f, b, g, sched, opts) followed by
// Checkpoint.RestoreKeepNames would, without building anything: it
// replays, in GenerateLoop's order, every unique-name request codegen
// makes and the names of the matched instructions leaving the body. A
// roll rejected by rollBound therefore leaves every later name as a
// generated-and-restored roll did. Any change to the names GenerateLoop
// requests must be mirrored here; TestRollBoundSound compares the two
// on every attempt of the test corpora.
func burnCodegenNames(f *ir.Func, b *ir.Block, g *Graph, sched *Schedule) {
	lanes := g.Root.Lanes()
	r := f.ReplayNames()
	r.Request("roll.loop")
	r.Request("roll.exit")
	for _, in := range b.Instrs {
		if _, matched := g.Matched[in]; matched && in.Op != ir.OpPhi {
			r.Drop(in.Name)
		}
	}
	r.Request("roll.iv")
	for _, n := range sched.Emission {
		switch n.Kind {
		case KindIntSeq:
			if n.Step != 1 {
				r.Request("t")
			}
			if n.Start != 0 {
				r.Request("t")
			}
			if n.SeqTyp.Bits < 64 {
				r.Request("t")
			}
		case KindMismatch:
			if !allConstScalar(n) {
				r.Request("roll.vdata")
				for range n.Vals {
					r.Request("t") // lane k's element pointer
				}
			}
			r.Request("t") // element iv's pointer
			r.Request("t") // its load
		case KindMatch:
			switch {
			case n.GepCastElem != nil:
				if !genType(n.Children[0]).Equal(ir.Ptr(n.GepCastElem)) {
					r.Request("t") // bitcast of the base
				}
				if it, ok := genType(n.Children[len(n.Children)-1]).(ir.IntType); ok && it.Bits < 64 {
					r.Request("t") // sext of the index
				}
				if n.GepPrefixElems != 0 {
					r.Request("t") // index offset
				}
				r.Request("t") // the gep
			case !ir.IsVoid(n.Typ):
				r.Request("roll")
			}
		case KindRecurrence:
			r.Request("roll.rec")
		case KindReduction:
			r.Request("roll.acc")
			if n.MinMaxPred != ir.PredInvalid {
				r.Request("roll.mm")
			}
			r.Request("t") // the accumulating operation or select
		}
	}
	// extractExternalUses: lanes other than the last alone escape
	// through a stack array reloaded in the exit block.
	for _, n := range sched.Emission {
		if n.Kind != KindMatch || ir.IsVoid(n.Typ) {
			continue
		}
		ext, last := 0, -1
		for k, in := range n.Insts {
			if in != nil && usedOutside(in, g) {
				ext, last = ext+1, k
			}
		}
		if ext == 0 || ext == 1 && last == lanes-1 {
			continue
		}
		r.Request("roll.out")
		r.Request("t") // element iv's pointer
		for ; ext > 0; ext-- {
			r.Request("roll.extp")
			r.Request("roll.ext")
		}
	}
	r.Request("t") // latch increment
	r.Request("t") // latch compare
	r.Burn()
}

// allConstScalar reports whether every lane of mismatch node n is a
// scalar constant, which codegen lowers to a read-only global table.
func allConstScalar(n *Node) bool {
	for _, v := range n.Vals {
		switch v.(type) {
		case *ir.IntConst, *ir.FloatConst:
		default:
			return false
		}
	}
	return true
}

// genType is the type of the value codegen generates for node n
// (n.gen).
func genType(n *Node) ir.Type {
	switch n.Kind {
	case KindMatch:
		if n.GepCastElem != nil {
			return ir.Ptr(n.GepCastElem)
		}
		return n.Typ
	case KindIntSeq:
		if n.SeqTyp.Bits < 64 {
			return n.SeqTyp
		}
		return ir.I64
	case KindRecurrence:
		return n.RefParent.Typ
	case KindReduction:
		return n.RedRoot.Typ
	}
	return n.Vals[0].Type()
}
