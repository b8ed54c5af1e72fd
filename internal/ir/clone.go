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
	nf.linkUses()
	return nf
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
