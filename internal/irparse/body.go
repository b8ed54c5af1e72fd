package irparse

import (
	"rolag/internal/ir"
)

// ref is an operand awaiting resolution: constants and globals resolve
// immediately (val set); local names resolve after the whole body has
// been read (forward references from phis).
type ref struct {
	val   ir.Value
	local string
	typ   ir.Type
	line  int
}

// blockRef names a branch target or phi predecessor.
type blockRef struct {
	name string
	line int
}

type pendingInstr struct {
	instr  *ir.Instr
	ops    []ref
	blocks []blockRef
}

func (p *parser) parseBody(f *ir.Func) error {
	names := make(map[string]ir.Value)
	for _, prm := range f.Params {
		names[prm.Name] = prm
	}
	blocks := make(map[string]*ir.Block)
	var pendings []pendingInstr
	var cur *ir.Block

	getBlock := func(name string) *ir.Block {
		if b, ok := blocks[name]; ok {
			return b
		}
		b := &ir.Block{Name: name}
		blocks[name] = b
		return b
	}

	for !p.isPunct("}") {
		if p.tok.kind == tEOF {
			return p.errf("unexpected end of input in function body")
		}
		// Block label: word ':'.
		if p.tok.kind == tWord {
			if nxt, err := p.peek(); err != nil {
				return err
			} else if nxt.kind == tPunct && nxt.text == ":" {
				name := p.tok.text
				if err := p.next(); err != nil {
					return err
				}
				if err := p.next(); err != nil { // consume ':'
					return err
				}
				cur = getBlock(name)
				f.InsertBlock(len(f.Blocks), cur)
				continue
			}
		}
		if cur == nil {
			return p.errf("instruction before any block label")
		}
		pi, err := p.parseInstr()
		if err != nil {
			return err
		}
		cur.Append(pi.instr)
		if pi.instr.Name != "" {
			names[pi.instr.Name] = pi.instr
		}
		pendings = append(pendings, pi)
	}
	if err := p.next(); err != nil { // consume '}'
		return err
	}

	// Resolve local operands and block references. The instructions
	// are attached already, so SetOperand records each use.
	for _, pi := range pendings {
		pi.instr.Operands = make([]ir.Value, len(pi.ops))
		for i, r := range pi.ops {
			if r.val != nil {
				pi.instr.SetOperand(i, r.val)
				continue
			}
			v, ok := names[r.local]
			if !ok {
				return &Error{Line: r.line, Msg: "undefined value %" + r.local}
			}
			pi.instr.SetOperand(i, v)
		}
		if len(pi.blocks) > 0 {
			pi.instr.Blocks = make([]*ir.Block, len(pi.blocks))
			for i, br := range pi.blocks {
				b, ok := blocks[br.name]
				if !ok {
					return &Error{Line: br.line, Msg: "undefined block %" + br.name}
				}
				pi.instr.Blocks[i] = b
			}
		}
	}
	return nil
}

// parseOperand parses "<type> <value>"; withType=false reuses typ.
func (p *parser) parseOperand(typ ir.Type, withType bool) (ref, ir.Type, error) {
	var err error
	if withType {
		typ, err = p.parseType()
		if err != nil {
			return ref{}, nil, err
		}
	}
	line := p.tok.line
	switch {
	case p.tok.kind == tLocal:
		name := p.tok.text
		if err := p.next(); err != nil {
			return ref{}, nil, err
		}
		return ref{local: name, typ: typ, line: line}, typ, nil
	case p.tok.kind == tGlobal:
		g := p.mod.FindGlobal(p.tok.text)
		if g == nil {
			return ref{}, nil, p.errf("undefined global @%s", p.tok.text)
		}
		if err := p.next(); err != nil {
			return ref{}, nil, err
		}
		return ref{val: g, typ: typ, line: line}, typ, nil
	default:
		c, err := p.parseConst(typ)
		if err != nil {
			return ref{}, nil, err
		}
		return ref{val: c, typ: typ, line: line}, typ, nil
	}
}

var castOps = map[string]ir.Op{
	"trunc": ir.OpTrunc, "zext": ir.OpZExt, "sext": ir.OpSExt,
	"fptrunc": ir.OpFPTrunc, "fpext": ir.OpFPExt,
	"fptosi": ir.OpFPToSI, "sitofp": ir.OpSIToFP,
	"ptrtoint": ir.OpPtrToInt, "inttoptr": ir.OpIntToPtr, "bitcast": ir.OpBitcast,
}

var binOps = map[string]ir.Op{
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul,
	"sdiv": ir.OpSDiv, "udiv": ir.OpUDiv, "srem": ir.OpSRem, "urem": ir.OpURem,
	"and": ir.OpAnd, "or": ir.OpOr, "xor": ir.OpXor,
	"shl": ir.OpShl, "lshr": ir.OpLShr, "ashr": ir.OpAShr,
	"fadd": ir.OpFAdd, "fsub": ir.OpFSub, "fmul": ir.OpFMul, "fdiv": ir.OpFDiv,
}

var preds = map[string]ir.Pred{
	"eq": ir.PredEQ, "ne": ir.PredNE,
	"slt": ir.PredSLT, "sle": ir.PredSLE, "sgt": ir.PredSGT, "sge": ir.PredSGE,
	"ult": ir.PredULT, "ule": ir.PredULE, "ugt": ir.PredUGT, "uge": ir.PredUGE,
	"oeq": ir.PredOEQ, "one": ir.PredONE,
	"olt": ir.PredOLT, "ole": ir.PredOLE, "ogt": ir.PredOGT, "oge": ir.PredOGE,
}

func (p *parser) parseInstr() (pendingInstr, error) {
	name := ""
	if p.tok.kind == tLocal {
		name = p.tok.text
		if err := p.next(); err != nil {
			return pendingInstr{}, err
		}
		if p.tok.kind != tPunct || p.tok.text != "=" {
			return pendingInstr{}, p.errf("expected '=' after %%%s", name)
		}
		if err := p.next(); err != nil {
			return pendingInstr{}, err
		}
	}
	if p.tok.kind != tWord {
		return pendingInstr{}, p.errf("expected opcode, found %q", p.tok.text)
	}
	op := p.tok.text
	if err := p.next(); err != nil {
		return pendingInstr{}, err
	}

	pi := pendingInstr{instr: &ir.Instr{Name: name, Typ: ir.Void}}
	in := pi.instr

	addOp := func(typ ir.Type, withType bool) (ir.Type, error) {
		r, t, err := p.parseOperand(typ, withType)
		if err != nil {
			return nil, err
		}
		pi.ops = append(pi.ops, r)
		return t, nil
	}
	comma := func() error { return p.expectPunct(",") }

	if bop, ok := binOps[op]; ok {
		in.Op = bop
		t, err := addOp(nil, true)
		if err != nil {
			return pi, err
		}
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(t, false); err != nil {
			return pi, err
		}
		in.Typ = t
		return pi, nil
	}

	switch op {
	case "icmp", "fcmp":
		in.Op = ir.OpICmp
		if op == "fcmp" {
			in.Op = ir.OpFCmp
		}
		pr, ok := preds[p.tok.text]
		if !ok {
			return pi, p.errf("unknown predicate %q", p.tok.text)
		}
		in.Pred = pr
		if err := p.next(); err != nil {
			return pi, err
		}
		t, err := addOp(nil, true)
		if err != nil {
			return pi, err
		}
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(t, false); err != nil {
			return pi, err
		}
		in.Typ = ir.I1
	case "alloca":
		in.Op = ir.OpAlloca
		elem, err := p.parseType()
		if err != nil {
			return pi, err
		}
		in.Alloc = elem
		in.Typ = ir.Ptr(elem)
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
	case "load":
		in.Op = ir.OpLoad
		t, err := p.parseType()
		if err != nil {
			return pi, err
		}
		in.Typ = t
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
	case "store":
		in.Op = ir.OpStore
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
	case "gep":
		in.Op = ir.OpGEP
		baseT, err := addOp(nil, true)
		if err != nil {
			return pi, err
		}
		var idxTypes []ir.Value
		_ = idxTypes
		var idxRefs []ir.Type
		for p.isPunct(",") {
			if err := p.next(); err != nil {
				return pi, err
			}
			it, err := addOp(nil, true)
			if err != nil {
				return pi, err
			}
			idxRefs = append(idxRefs, it)
		}
		// Result type: computed from the base type and the *index
		// constants*; variable indices only step arrays, which GEPType
		// tolerates via non-constant values. Build a probe index list.
		probe := make([]ir.Value, len(idxRefs))
		for i, r := range pi.ops[1:] {
			if r.val != nil {
				probe[i] = r.val
			} else {
				// A local: use a placeholder of the right type; struct
				// indices must be constants so this stays an array or
				// pointer step.
				probe[i] = &ir.UndefConst{Typ: r.typ}
			}
		}
		t, gerr := ir.GEPType(baseT, probe)
		if gerr != nil {
			return pi, p.errf("%v", gerr)
		}
		in.Typ = t
	case "call":
		in.Op = ir.OpCall
		ret, err := p.parseType()
		if err != nil {
			return pi, err
		}
		in.Typ = ret
		if p.tok.kind != tGlobal {
			return pi, p.errf("expected callee name")
		}
		callee := p.mod.FindFunc(p.tok.text)
		if callee == nil {
			return pi, p.errf("undefined function @%s", p.tok.text)
		}
		in.Callee = callee
		if err := p.next(); err != nil {
			return pi, err
		}
		if err := p.expectPunct("("); err != nil {
			return pi, err
		}
		for !p.isPunct(")") {
			if _, err := addOp(nil, true); err != nil {
				return pi, err
			}
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return pi, err
				}
			}
		}
		if err := p.next(); err != nil {
			return pi, err
		}
	case "phi":
		in.Op = ir.OpPhi
		t, err := p.parseType()
		if err != nil {
			return pi, err
		}
		in.Typ = t
		for {
			if err := p.expectPunct("["); err != nil {
				return pi, err
			}
			if _, err := addOp(t, false); err != nil {
				return pi, err
			}
			if err := comma(); err != nil {
				return pi, err
			}
			if p.tok.kind != tLocal {
				return pi, p.errf("expected block name in phi")
			}
			pi.blocks = append(pi.blocks, blockRef{name: p.tok.text, line: p.tok.line})
			if err := p.next(); err != nil {
				return pi, err
			}
			if err := p.expectPunct("]"); err != nil {
				return pi, err
			}
			if !p.isPunct(",") {
				break
			}
			if err := p.next(); err != nil {
				return pi, err
			}
		}
	case "select":
		in.Op = ir.OpSelect
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
		if err := comma(); err != nil {
			return pi, err
		}
		t, err := addOp(nil, true)
		if err != nil {
			return pi, err
		}
		if err := comma(); err != nil {
			return pi, err
		}
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
		in.Typ = t
	case "br":
		in.Op = ir.OpBr
		if p.tok.kind != tLocal {
			return pi, p.errf("expected block name")
		}
		pi.blocks = append(pi.blocks, blockRef{name: p.tok.text, line: p.tok.line})
		if err := p.next(); err != nil {
			return pi, err
		}
	case "condbr":
		in.Op = ir.OpCondBr
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
		for i := 0; i < 2; i++ {
			if err := comma(); err != nil {
				return pi, err
			}
			if p.tok.kind != tLocal {
				return pi, p.errf("expected block name")
			}
			pi.blocks = append(pi.blocks, blockRef{name: p.tok.text, line: p.tok.line})
			if err := p.next(); err != nil {
				return pi, err
			}
		}
	case "ret":
		in.Op = ir.OpRet
		if p.isWord("void") {
			return pi, p.next()
		}
		if _, err := addOp(nil, true); err != nil {
			return pi, err
		}
	default:
		if co, ok := castOps[op]; ok {
			in.Op = co
			if _, err := addOp(nil, true); err != nil {
				return pi, err
			}
			if !p.isWord("to") {
				return pi, p.errf("expected 'to' in cast")
			}
			if err := p.next(); err != nil {
				return pi, err
			}
			t, err := p.parseType()
			if err != nil {
				return pi, err
			}
			in.Typ = t
			return pi, nil
		}
		if in.Op == ir.OpInvalid {
			return pi, p.errf("unknown opcode %q", op)
		}
	}
	return pi, nil
}
