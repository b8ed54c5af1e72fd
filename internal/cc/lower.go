package cc

import (
	"fmt"
	"slices"

	"rolag/internal/ir"
)

// Compile parses src and lowers it to an IR module. The emitted IR keeps
// all locals in allocas; run passes.Mem2Reg to promote them to SSA
// registers.
func Compile(src, moduleName string) (*ir.Module, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(f, moduleName)
}

// Lower lowers a parsed file to an IR module.
func Lower(f *File, moduleName string) (*ir.Module, error) {
	lw := &lowerer{
		mod:     ir.NewModule(moduleName),
		structs: make(map[*CStruct]*ir.StructType),
		globals: make(map[string]*globalInfo),
		funcs:   make(map[string]*funcInfo),
	}
	return lw.lowerFile(f)
}

type globalInfo struct {
	g  *ir.Global
	ct *CType
}

type funcInfo struct {
	f      *ir.Func
	ret    *CType
	params []*CType
}

type localInfo struct {
	addr *ir.Instr // the alloca
	ct   *CType
}

type loopCtx struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

type lowerer struct {
	mod     *ir.Module
	structs map[*CStruct]*ir.StructType
	globals map[string]*globalInfo
	funcs   map[string]*funcInfo

	fn     *ir.Func
	fnDecl *FuncDecl
	bd     *ir.Builder
	scopes []map[string]localInfo
	loops  []loopCtx
	entry  *ir.Block
	// locals stages the allocas allocaInEntry creates while the body
	// lowers: a nameless block of the function, so their names are taken
	// as they are made. spliceLocals then moves them into entry in one
	// pass; inserting each into entry would shift the block per local.
	locals *ir.Block
}

func (lw *lowerer) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// irType maps a C type to its IR representation.
func (lw *lowerer) irType(t *CType) ir.Type {
	switch t.Kind {
	case KVoid:
		return ir.Void
	case KInt:
		return ir.IntType{Bits: t.Bits}
	case KFloat:
		return ir.FloatType{Bits: t.Bits}
	case KPtr:
		if t.Elem.Kind == KVoid {
			return ir.Ptr(ir.I8) // void* is treated as char*
		}
		return ir.Ptr(lw.irType(t.Elem))
	case KArray:
		return ir.ArrayOf(t.Len, lw.irType(t.Elem))
	case KStruct:
		if st, ok := lw.structs[t.Struct]; ok {
			return st
		}
		st := &ir.StructType{TypeName: t.Struct.Name}
		lw.structs[t.Struct] = st
		for _, f := range t.Struct.Fields {
			st.Fields = append(st.Fields, lw.irType(f.Type))
		}
		lw.mod.AddStruct(st)
		return st
	}
	panic("cc: unknown type kind")
}

func (lw *lowerer) lowerFile(f *File) (*ir.Module, error) {
	// Structs first so field layouts exist.
	for _, s := range f.Structs {
		lw.irType(&CType{Kind: KStruct, Struct: s})
	}
	for _, g := range f.Globals {
		if err := lw.lowerGlobal(g); err != nil {
			return nil, err
		}
	}
	// Declare every function first so calls resolve in any order.
	for _, fd := range f.Funcs {
		if err := lw.declareFunc(fd); err != nil {
			return nil, err
		}
	}
	for _, fd := range f.Funcs {
		if fd.Body != nil {
			if err := lw.lowerFuncBody(fd); err != nil {
				return nil, err
			}
		}
	}
	return lw.mod, nil
}

func (lw *lowerer) lowerGlobal(g *GlobalDecl) error {
	if _, dup := lw.globals[g.Name]; dup {
		return lw.errf(g.Pos, "global %s redefined", g.Name)
	}
	elem := lw.irType(g.Type)
	var init ir.Const
	if g.Extern {
		init = nil
	} else if len(g.Init) == 0 {
		init = ir.ZeroValue(elem)
	} else if at, ok := elem.(ir.ArrayType); ok {
		arr := &ir.ArrayConst{Typ: at}
		for _, e := range g.Init {
			c, err := lw.constEval(e, g.Type.Elem)
			if err != nil {
				return err
			}
			arr.Elems = append(arr.Elems, c)
		}
		for len(arr.Elems) < at.Len {
			arr.Elems = append(arr.Elems, ir.ZeroValue(at.Elem))
		}
		init = arr
	} else {
		c, err := lw.constEval(g.Init[0], g.Type)
		if err != nil {
			return err
		}
		init = c
	}
	gv := lw.mod.NewGlobal(g.Name, elem, init)
	gv.ReadOnly = g.ReadOnly
	lw.globals[g.Name] = &globalInfo{g: gv, ct: g.Type}
	return nil
}

// constEval folds a constant initializer expression.
func (lw *lowerer) constEval(e Expr, want *CType) (ir.Const, error) {
	switch e := e.(type) {
	case *IntLit:
		switch want.Kind {
		case KFloat:
			return ir.ConstFloat(ir.FloatType{Bits: want.Bits}, float64(e.Val)), nil
		case KInt:
			return ir.ConstInt(ir.IntType{Bits: want.Bits}, e.Val), nil
		}
		return ir.ConstInt(ir.I32, e.Val), nil
	case *FloatLit:
		bits := 64
		if want.Kind == KFloat {
			bits = want.Bits
		}
		return ir.ConstFloat(ir.FloatType{Bits: bits}, e.Val), nil
	case *Unary:
		if e.Op == "-" {
			c, err := lw.constEval(e.X, want)
			if err != nil {
				return nil, err
			}
			switch c := c.(type) {
			case *ir.IntConst:
				return ir.ConstInt(c.Typ, -c.Val), nil
			case *ir.FloatConst:
				return ir.ConstFloat(c.Typ, -c.Val), nil
			}
		}
	}
	return nil, lw.errf(e.exprPos(), "initializer is not a constant")
}

func (lw *lowerer) declareFunc(fd *FuncDecl) error {
	if fi, ok := lw.funcs[fd.Name]; ok {
		// A prior prototype; definitions may follow it.
		if fd.Body != nil && fi.f.IsDecl() {
			return nil
		}
		if fd.Body == nil {
			return nil
		}
		return lw.errf(fd.Pos, "function %s redefined", fd.Name)
	}
	params := make([]*ir.Param, len(fd.Params))
	ctypes := make([]*CType, len(fd.Params))
	for i, pd := range fd.Params {
		name := pd.Name
		if name == "" {
			name = fmt.Sprintf("p%d", i)
		}
		pt := pd.Type
		if pt.Kind == KArray {
			pt = CPtr(pt.Elem)
		}
		if pt.Kind == KStruct {
			return lw.errf(fd.Pos, "struct-by-value parameters are not supported; pass a pointer")
		}
		params[i] = &ir.Param{Name: name, Typ: lw.irType(pt)}
		ctypes[i] = pt
	}
	f := lw.mod.NewFunc(fd.Name, lw.irType(fd.Ret), params...)
	if fd.Body == nil {
		f.Blocks = nil
		f.ReadOnly = fd.Pure
	}
	lw.funcs[fd.Name] = &funcInfo{f: f, ret: fd.Ret, params: ctypes}
	return nil
}

func (lw *lowerer) lowerFuncBody(fd *FuncDecl) error {
	fi := lw.funcs[fd.Name]
	lw.fn = fi.f
	lw.fnDecl = fd
	lw.fn.Blocks = nil
	entry := lw.fn.NewBlock("entry")
	lw.entry = entry
	lw.locals = &ir.Block{}
	lw.fn.InsertBlock(1, lw.locals)
	lw.bd = ir.NewBuilder(entry)
	lw.scopes = []map[string]localInfo{make(map[string]localInfo)}
	lw.loops = nil

	// Spill parameters to allocas so assignments to parameters work;
	// Mem2Reg promotes them back.
	for i, p := range lw.fn.Params {
		a := lw.bd.Alloca(p.Typ, nil, p.Name+".addr")
		lw.bd.Store(p, a)
		lw.scopes[0][fd.Params[i].Name] = localInfo{addr: a, ct: fi.params[i]}
	}

	if err := lw.lowerStmt(fd.Body); err != nil {
		return err
	}
	// Implicit return.
	if lw.bd.Block.Terminator() == nil {
		if fd.Ret.Kind == KVoid {
			lw.bd.Ret(nil)
		} else {
			lw.bd.Ret(ir.ZeroValue(lw.irType(fd.Ret)))
		}
	}
	lw.spliceLocals()
	lw.removeUnreachable()
	return nil
}

// spliceLocals moves the staged local allocas, in creation order, to the
// end of the alloca run that opens entry, and drops their staging block.
func (lw *lowerer) spliceLocals() {
	entry := lw.entry
	head := 0
	for head < len(entry.Instrs) && entry.Instrs[head].Op == ir.OpAlloca {
		head++
	}
	rest := slices.Clone(entry.Instrs[head:])
	entry.Instrs = entry.Instrs[:head]
	// Appending an instruction of the function moves it between blocks.
	for _, in := range lw.locals.Instrs {
		entry.Append(in)
	}
	for _, in := range rest {
		entry.Append(in)
	}
	lw.fn.RemoveBlock(lw.locals)
}

// removeUnreachable deletes blocks not reachable from the entry; such
// blocks arise after return/break statements.
func (lw *lowerer) removeUnreachable() {
	reach := map[*ir.Block]bool{lw.fn.Entry(): true}
	work := []*ir.Block{lw.fn.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	for _, b := range slices.Clone(lw.fn.Blocks) {
		if !reach[b] {
			lw.fn.RemoveBlock(b)
		}
	}
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, make(map[string]localInfo)) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) lookup(name string) (localInfo, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if li, ok := lw.scopes[i][name]; ok {
			return li, true
		}
	}
	return localInfo{}, false
}

func (lw *lowerer) lowerStmt(s Stmt) error {
	switch s := s.(type) {
	case *EmptyStmt:
		return nil
	case *BlockStmt:
		lw.pushScope()
		defer lw.popScope()
		for _, st := range s.Stmts {
			if lw.bd.Block.Terminator() != nil {
				// Dead code after return/break; lower into a fresh
				// unreachable block that cleanup removes.
				dead := lw.fn.NewBlock("dead")
				lw.bd.SetBlock(dead)
			}
			if err := lw.lowerStmt(st); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		elem := lw.irType(s.Type)
		a := lw.allocaInEntry(elem, s.Name)
		lw.scopes[len(lw.scopes)-1][s.Name] = localInfo{addr: a, ct: s.Type}
		if s.Init != nil {
			v, vt, err := lw.lowerExpr(s.Init)
			if err != nil {
				return err
			}
			cv, err := lw.convert(v, vt, s.Type, s.Pos)
			if err != nil {
				return err
			}
			lw.bd.Store(cv, a)
		}
		return nil
	case *ExprStmt:
		_, _, err := lw.lowerExpr(s.X)
		return err
	case *ReturnStmt:
		if s.X == nil {
			lw.bd.Ret(nil)
			return nil
		}
		v, vt, err := lw.lowerExpr(s.X)
		if err != nil {
			return err
		}
		cv, err := lw.convert(v, vt, lw.fnDecl.Ret, s.Pos)
		if err != nil {
			return err
		}
		lw.bd.Ret(cv)
		return nil
	case *IfStmt:
		cond, err := lw.lowerCond(s.Cond)
		if err != nil {
			return err
		}
		thenB := lw.fn.NewBlock("if.then")
		exitB := lw.fn.NewBlock("if.end")
		elseB := exitB
		if s.Else != nil {
			elseB = lw.fn.NewBlock("if.else")
		}
		lw.bd.CondBr(cond, thenB, elseB)
		lw.bd.SetBlock(thenB)
		if err := lw.lowerStmt(s.Then); err != nil {
			return err
		}
		if lw.bd.Block.Terminator() == nil {
			lw.bd.Br(exitB)
		}
		if s.Else != nil {
			lw.bd.SetBlock(elseB)
			if err := lw.lowerStmt(s.Else); err != nil {
				return err
			}
			if lw.bd.Block.Terminator() == nil {
				lw.bd.Br(exitB)
			}
		}
		lw.bd.SetBlock(exitB)
		return nil
	case *ForStmt:
		return lw.lowerLoop(s.Init, s.Cond, s.Post, s.Body)
	case *WhileStmt:
		return lw.lowerLoop(nil, s.Cond, nil, s.Body)
	case *DoWhileStmt:
		return lw.lowerDoWhile(s.Cond, s.Body)
	case *BreakStmt:
		if len(lw.loops) == 0 {
			return lw.errf(s.Pos, "break outside loop")
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].breakTo)
		return nil
	case *ContinueStmt:
		if len(lw.loops) == 0 {
			return lw.errf(s.Pos, "continue outside loop")
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].continueTo)
		return nil
	}
	return fmt.Errorf("cc: unhandled statement %T", s)
}

// allocaInEntry creates an alloca bound for the entry block (before any
// non-alloca instruction) so that Mem2Reg sees every local.
func (lw *lowerer) allocaInEntry(elem ir.Type, name string) *ir.Instr {
	save := lw.bd.Block
	saveAt := lw.bd.At
	lw.bd.SetBlock(lw.locals)
	a := lw.bd.Alloca(elem, nil, name)
	lw.bd.Block = save
	lw.bd.At = saveAt
	return a
}

// lowerLoop lowers a (rotated) for/while loop:
//
//	init; if (cond) { do { body; post } while (cond); }
//
// so that simple counted loops become the canonical single-block shape
// after Mem2Reg. Loops whose body uses continue get a separate latch.
func (lw *lowerer) lowerLoop(init Stmt, cond Expr, post Expr, body Stmt) error {
	lw.pushScope()
	defer lw.popScope()
	if init != nil {
		if err := lw.lowerStmt(init); err != nil {
			return err
		}
	}
	bodyB := lw.fn.NewBlock("loop.body")
	exitB := lw.fn.NewBlock("loop.exit")

	// Guard.
	if cond != nil {
		c, err := lw.lowerCond(cond)
		if err != nil {
			return err
		}
		lw.bd.CondBr(c, bodyB, exitB)
	} else {
		lw.bd.Br(bodyB)
	}

	needLatch := usesContinue(body)
	var latchB *ir.Block
	continueTo := bodyB
	if needLatch {
		latchB = lw.fn.NewBlock("loop.latch")
		continueTo = latchB
	}
	lw.loops = append(lw.loops, loopCtx{breakTo: exitB, continueTo: continueTo})
	lw.bd.SetBlock(bodyB)
	if err := lw.lowerStmt(body); err != nil {
		return err
	}
	lw.loops = lw.loops[:len(lw.loops)-1]

	emitLatch := func() error {
		if post != nil {
			if _, _, err := lw.lowerExpr(post); err != nil {
				return err
			}
		}
		if cond != nil {
			c, err := lw.lowerCond(cond)
			if err != nil {
				return err
			}
			lw.bd.CondBr(c, bodyB, exitB)
		} else {
			lw.bd.Br(bodyB)
		}
		return nil
	}

	if needLatch {
		if lw.bd.Block.Terminator() == nil {
			lw.bd.Br(latchB)
		}
		lw.bd.SetBlock(latchB)
		if err := emitLatch(); err != nil {
			return err
		}
	} else if lw.bd.Block.Terminator() == nil {
		if err := emitLatch(); err != nil {
			return err
		}
	}
	lw.bd.SetBlock(exitB)
	return nil
}

// lowerDoWhile lowers do { body } while (cond): the body runs
// unconditionally, then loops while the condition holds. This is the
// rotated loop shape without the guard.
func (lw *lowerer) lowerDoWhile(cond Expr, body Stmt) error {
	lw.pushScope()
	defer lw.popScope()
	bodyB := lw.fn.NewBlock("loop.body")
	exitB := lw.fn.NewBlock("loop.exit")
	lw.bd.Br(bodyB)

	needLatch := usesContinue(body)
	var latchB *ir.Block
	continueTo := bodyB
	if needLatch {
		latchB = lw.fn.NewBlock("loop.latch")
		continueTo = latchB
	}
	lw.loops = append(lw.loops, loopCtx{breakTo: exitB, continueTo: continueTo})
	lw.bd.SetBlock(bodyB)
	if err := lw.lowerStmt(body); err != nil {
		return err
	}
	lw.loops = lw.loops[:len(lw.loops)-1]

	emitLatch := func() error {
		c, err := lw.lowerCond(cond)
		if err != nil {
			return err
		}
		lw.bd.CondBr(c, bodyB, exitB)
		return nil
	}
	if needLatch {
		if lw.bd.Block.Terminator() == nil {
			lw.bd.Br(latchB)
		}
		lw.bd.SetBlock(latchB)
		if err := emitLatch(); err != nil {
			return err
		}
	} else if lw.bd.Block.Terminator() == nil {
		if err := emitLatch(); err != nil {
			return err
		}
	}
	lw.bd.SetBlock(exitB)
	return nil
}

// usesContinue reports whether the statement contains a continue that
// binds to this loop (i.e. not inside a nested loop).
func usesContinue(s Stmt) bool {
	switch s := s.(type) {
	case *ContinueStmt:
		return true
	case *BlockStmt:
		for _, st := range s.Stmts {
			if usesContinue(st) {
				return true
			}
		}
	case *IfStmt:
		if usesContinue(s.Then) {
			return true
		}
		if s.Else != nil && usesContinue(s.Else) {
			return true
		}
	}
	return false
}
