package ir

// CloneFunc returns a deep copy of f inside module m (which may be f's
// own module; the clone gets the given name). Instruction and block
// identities are fresh; references to globals and callees are preserved.
func CloneFunc(f *Func, m *Module, name string) *Func {
	params := make([]*Param, len(f.Params))
	for i, p := range f.Params {
		params[i] = &Param{Name: p.Name, Typ: p.Typ}
	}
	nf := m.NewFunc(name, f.Sig.Ret, params...)
	nf.ReadOnly = f.ReadOnly
	if f.IsDecl() {
		nf.Blocks = nil
		return nf
	}

	vmap := make(map[Value]Value)
	for i, p := range f.Params {
		vmap[p] = params[i]
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name, Parent: nf}
		nf.Blocks = append(nf.Blocks, nb)
		bmap[b] = nb
	}
	// First pass: clone instructions without operands so that forward
	// references (phis) resolve.
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ni := &Instr{
				Name:   in.Name,
				Op:     in.Op,
				Typ:    in.Typ,
				Pred:   in.Pred,
				Callee: in.Callee,
				Alloc:  in.Alloc,
				Parent: nb,
			}
			nb.Instrs = append(nb.Instrs, ni)
			vmap[in] = ni
		}
	}
	// Second pass: fill operands and block references.
	for _, b := range f.Blocks {
		nb := bmap[b]
		for ii, in := range b.Instrs {
			ni := nb.Instrs[ii]
			if len(in.Operands) > 0 {
				ni.Operands = make([]Value, len(in.Operands))
				for oi, op := range in.Operands {
					ni.Operands[oi] = mapValue(op, vmap)
				}
			}
			if len(in.Blocks) > 0 {
				ni.Blocks = make([]*Block, len(in.Blocks))
				for bi, tb := range in.Blocks {
					ni.Blocks[bi] = bmap[tb]
				}
			}
		}
	}
	return nf
}

// CloneBlocks returns a deep copy of f's blocks that keeps referring to
// f's own parameters, globals and callees. Swapping f.Blocks with the
// returned slice restores (or snapshots) the body — used by
// transformations that must be rolled back when not profitable.
func CloneBlocks(f *Func) []*Block {
	vmap := make(map[Value]Value)
	bmap := make(map[*Block]*Block, len(f.Blocks))
	out := make([]*Block, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name, Parent: f}
		out = append(out, nb)
		bmap[b] = nb
	}
	for bi, b := range f.Blocks {
		nb := out[bi]
		for _, in := range b.Instrs {
			ni := &Instr{
				Name:   in.Name,
				Op:     in.Op,
				Typ:    in.Typ,
				Pred:   in.Pred,
				Callee: in.Callee,
				Alloc:  in.Alloc,
				Parent: nb,
			}
			nb.Instrs = append(nb.Instrs, ni)
			vmap[in] = ni
		}
	}
	for bi, b := range f.Blocks {
		nb := out[bi]
		for ii, in := range b.Instrs {
			ni := nb.Instrs[ii]
			if len(in.Operands) > 0 {
				ni.Operands = make([]Value, len(in.Operands))
				for oi, op := range in.Operands {
					ni.Operands[oi] = mapValue(op, vmap)
				}
			}
			if len(in.Blocks) > 0 {
				ni.Blocks = make([]*Block, len(in.Blocks))
				for i, tb := range in.Blocks {
					ni.Blocks[i] = bmap[tb]
				}
			}
		}
	}
	return out
}

// ShadowFunc returns a detached deep copy of f's body for sandboxed
// pass execution. The shadow shares f's Params (so cloned operands keep
// referring to the same values and committing the body back needs no
// remapping), keeps f's Parent (so global references verify), and
// carries f's name counter (so names generated while transforming the
// shadow are exactly the names in-place execution would have produced).
// The shadow is NOT registered in Parent.Funcs; the sandbox keeps it as
// the rollback snapshot of an in-place pass execution.
func ShadowFunc(f *Func) *Func {
	sh := &Func{
		Name:        f.Name,
		Sig:         f.Sig,
		Params:      f.Params,
		Parent:      f.Parent,
		ReadOnly:    f.ReadOnly,
		nameCounter: f.nameCounter,
	}
	sh.Blocks = CloneBlocks(f)
	for _, b := range sh.Blocks {
		b.Parent = sh
	}
	return sh
}

// AdoptBody commits a shadow produced by ShadowFunc back into f: the
// shadow's blocks (reparented to f) and its name-counter state replace
// f's. After adoption the shadow must not be used again.
func (f *Func) AdoptBody(sh *Func) {
	f.Blocks = sh.Blocks
	for _, b := range f.Blocks {
		b.Parent = f
	}
	f.nameCounter = sh.nameCounter
}

func mapValue(v Value, vmap map[Value]Value) Value {
	if nv, ok := vmap[v]; ok {
		return nv
	}
	return v
}

// CloneModule returns a deep copy of m. Globals and named struct types
// are copied; function bodies are cloned with all internal references
// remapped to the new module's functions and globals.
func CloneModule(m *Module) *Module {
	nm := NewModule(m.Name)
	nm.Structs = append(nm.Structs, m.Structs...)
	gmap := make(map[*Global]*Global, len(m.Globals))
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Elem: g.Elem, Init: g.Init, ReadOnly: g.ReadOnly, Parent: nm}
		nm.Globals = append(nm.Globals, ng)
		gmap[g] = ng
	}
	fmap := make(map[*Func]*Func, len(m.Funcs))
	for _, f := range m.Funcs {
		nf := CloneFunc(f, nm, f.Name)
		fmap[f] = nf
	}
	// Remap globals and callees inside all cloned bodies.
	for _, nf := range nm.Funcs {
		for _, b := range nf.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil {
					if nc, ok := fmap[in.Callee]; ok {
						in.Callee = nc
					}
				}
				for oi, op := range in.Operands {
					switch ov := op.(type) {
					case *Global:
						if ng, ok := gmap[ov]; ok {
							in.Operands[oi] = ng
						}
					case *Func:
						if nc, ok := fmap[ov]; ok {
							in.Operands[oi] = nc
						}
					}
				}
			}
		}
	}
	return nm
}
