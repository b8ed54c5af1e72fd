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
