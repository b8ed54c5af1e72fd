package ir

import "fmt"

// Block is a basic block: a straight-line sequence of instructions ending
// in a terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Func
}

// Append adds an instruction at the end of the block and sets its parent.
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertAt inserts an instruction at position i.
func (b *Block) InsertAt(i int, in *Instr) {
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Remove detaches the instruction from the block. It does not update
// uses; callers must have replaced or removed all uses first.
func (b *Block) Remove(in *Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			in.Parent = nil
			return
		}
	}
}

// Terminator returns the block's terminator instruction, or nil if the
// block is not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil || t.Op == OpRet {
		return nil
	}
	return t.Blocks
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var phis []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		phis = append(phis, in)
	}
	return phis
}

// Func is a function: a signature plus, for definitions, a list of basic
// blocks (the first block is the entry). A Func with no blocks is an
// external declaration.
type Func struct {
	Name     string
	Sig      *FuncType
	Params   []*Param
	Blocks   []*Block
	Parent   *Module
	ReadOnly bool // declaration known not to write caller-visible memory

	nameCounter int
}

// Type returns the type of the function when used as a callee value.
func (f *Func) Type() Type    { return f.Sig }
func (f *Func) Ident() string { return "@" + f.Name }

// IsDecl reports whether f is an external declaration (no body).
func (f *Func) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock creates a block with a unique name based on name and appends
// it to the function.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: f.uniqueName(name), Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// RemoveBlock detaches block b from the function.
func (f *Func) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			b.Parent = nil
			return
		}
	}
}

// UniqueName returns a function-unique SSA or block name derived from
// base.
func (f *Func) UniqueName(base string) string { return f.uniqueName(base) }

// uniqueName returns a function-unique SSA or block name derived from
// base.
func (f *Func) uniqueName(base string) string {
	if base == "" {
		base = "t"
	}
	if !f.nameTaken(base) {
		return base
	}
	for {
		f.nameCounter++
		cand := fmt.Sprintf("%s%d", base, f.nameCounter)
		if !f.nameTaken(cand) {
			return cand
		}
	}
}

func (f *Func) nameTaken(name string) bool {
	for _, p := range f.Params {
		if p.Name == name {
			return true
		}
	}
	for _, b := range f.Blocks {
		if b.Name == name {
			return true
		}
		for _, in := range b.Instrs {
			if in.Name == name {
				return true
			}
		}
	}
	return false
}

// NumInstrs returns the total number of instructions in the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Users returns a map from each value to the instructions in f that use
// it as an operand (def-use chains). The map is computed by scanning the
// function; callers should recompute it after mutating the IR.
func (f *Func) Users() map[Value][]*Instr {
	users := make(map[Value][]*Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			seen := make(map[Value]bool, len(in.Operands))
			for _, op := range in.Operands {
				if op == nil || seen[op] {
					continue
				}
				seen[op] = true
				users[op] = append(users[op], in)
			}
		}
	}
	return users
}

// ReplaceAllUses rewrites every use of old inside f to new.
func (f *Func) ReplaceAllUses(old, new Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			n += in.ReplaceUsesOf(old, new)
		}
	}
	return n
}

// Preds returns the predecessor blocks of b within f.
func (f *Func) Preds(b *Block) []*Block {
	var preds []*Block
	for _, p := range f.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				preds = append(preds, p)
				break
			}
		}
	}
	return preds
}

// Module is a compilation unit: named struct types, globals and
// functions.
type Module struct {
	Name    string
	Structs []*StructType
	Globals []*Global
	Funcs   []*Func

	globalCounter int
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// NewFunc creates a function definition with the given name, return type
// and parameters, and adds it to the module.
func (m *Module) NewFunc(name string, ret Type, params ...*Param) *Func {
	ptypes := make([]Type, len(params))
	for i, p := range params {
		ptypes[i] = p.Typ
	}
	f := &Func{
		Name:   name,
		Sig:    &FuncType{Ret: ret, Params: ptypes},
		Params: params,
		Parent: m,
	}
	for _, p := range params {
		p.Parent = f
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// NewDecl creates an external function declaration.
func (m *Module) NewDecl(name string, ret Type, paramTypes ...Type) *Func {
	params := make([]*Param, len(paramTypes))
	for i, t := range paramTypes {
		params[i] = &Param{Name: fmt.Sprintf("a%d", i), Typ: t}
	}
	f := m.NewFunc(name, ret, params...)
	f.Blocks = nil
	return f
}

// NewGlobal creates a global variable and adds it to the module. The name
// is made unique within the module.
func (m *Module) NewGlobal(name string, elem Type, init Const) *Global {
	g := &Global{Name: m.uniqueGlobalName(name), Elem: elem, Init: init, Parent: m}
	m.Globals = append(m.Globals, g)
	return g
}

func (m *Module) uniqueGlobalName(base string) string {
	if base == "" {
		base = "g"
	}
	if m.FindGlobal(base) == nil && m.FindFunc(base) == nil {
		return base
	}
	for {
		m.globalCounter++
		cand := fmt.Sprintf("%s.%d", base, m.globalCounter)
		if m.FindGlobal(cand) == nil && m.FindFunc(cand) == nil {
			return cand
		}
	}
}

// GlobalsMark is a snapshot of a module's globals list and unique-name
// counter, taken with MarkGlobals and restored with ResetGlobals.
type GlobalsMark struct {
	n       int
	counter int
}

// MarkGlobals snapshots the globals state so a speculative
// transformation can be rolled back without leaving a trace: restoring
// the mark also restores the name counter, keeping subsequent
// unique-name generation independent of abandoned attempts.
func (m *Module) MarkGlobals() GlobalsMark {
	return GlobalsMark{n: len(m.Globals), counter: m.globalCounter}
}

// ResetGlobals drops every global added since mark was taken and
// restores the unique-name counter.
func (m *Module) ResetGlobals(mark GlobalsMark) {
	m.Globals = m.Globals[:mark.n]
	m.globalCounter = mark.counter
}

// FindFunc returns the function with the given name, or nil.
func (m *Module) FindFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FindGlobal returns the global with the given name, or nil.
func (m *Module) FindGlobal(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// FindStruct returns the named struct type with the given name, or nil.
func (m *Module) FindStruct(name string) *StructType {
	for _, s := range m.Structs {
		if s.TypeName == name {
			return s
		}
	}
	return nil
}

// AddStruct registers a named struct type with the module.
func (m *Module) AddStruct(s *StructType) *StructType {
	m.Structs = append(m.Structs, s)
	return s
}
