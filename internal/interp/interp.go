// Package interp implements an interpreter for the project's IR. It is
// used two ways: as the semantic-equivalence oracle in tests (the
// original and transformed functions must produce the same return value,
// memory contents and external-call trace on the same inputs) and to
// estimate runtime overhead for the paper's §V.D experiment via executed
// instruction counts.
package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rolag/internal/ir"
)

// TrapKind classifies a defined runtime trap: a condition under which
// execution stops with a well-defined error instead of a Go panic or an
// unbounded hang. Traps make the interpreter safe to drive from a fuzzer
// — no input can take down or stall the harness.
type TrapKind int

// Trap kinds.
const (
	// TrapDivByZero is an integer division or remainder by zero.
	TrapDivByZero TrapKind = iota
	// TrapOutOfBounds is a memory access outside the allocated range
	// (including accesses through null or small invalid addresses).
	TrapOutOfBounds
	// TrapStepLimit means the execution fuel (MaxSteps) ran out.
	TrapStepLimit
	// TrapMemLimit means an allocation would exceed MaxMem.
	TrapMemLimit
	// TrapCallDepth means the call stack exceeded MaxDepth.
	TrapCallDepth
	// TrapBadAlloca is an alloca with a negative or absurd element count.
	TrapBadAlloca
)

func (k TrapKind) String() string {
	switch k {
	case TrapDivByZero:
		return "division by zero"
	case TrapOutOfBounds:
		return "out-of-bounds access"
	case TrapStepLimit:
		return "step limit exceeded"
	case TrapMemLimit:
		return "memory limit exceeded"
	case TrapCallDepth:
		return "call depth exceeded"
	case TrapBadAlloca:
		return "invalid alloca size"
	}
	return "unknown trap"
}

// Trap is a defined runtime error. It wraps no other error; use
// errors.As to recover it from the (possibly annotated) error chain.
type Trap struct {
	Kind   TrapKind
	Detail string
}

func (t *Trap) Error() string {
	if t.Detail == "" {
		return "interp: trap: " + t.Kind.String()
	}
	return "interp: trap: " + t.Kind.String() + ": " + t.Detail
}

// Val is a runtime value: integers and pointers in I (pointers are
// addresses), floats in F. The static type of the producing value selects
// the active field.
type Val struct {
	I int64
	F float64
}

// IntVal returns an integer Val.
func IntVal(v int64) Val { return Val{I: v} }

// FloatVal returns a floating-point Val.
func FloatVal(v float64) Val { return Val{F: v} }

// TraceEvent records one call to an external function.
type TraceEvent struct {
	Callee string
	Args   []Val
	Ret    Val
}

// ExternFunc is a host implementation of an external function.
type ExternFunc func(in *Interp, args []Val) (Val, error)

// Interp executes functions of one module against a flat memory.
type Interp struct {
	Mod *ir.Module
	// Externs maps external function names to host implementations.
	// Unregistered externals get the default behaviour: record a trace
	// event and return a value derived deterministically from the
	// arguments.
	Externs map[string]ExternFunc
	// Trace is the ordered log of external calls made during execution.
	Trace []TraceEvent
	// Steps counts executed instructions.
	Steps int64
	// MaxSteps is the execution fuel: the run traps with TrapStepLimit
	// once more than MaxSteps instructions execute (default 10M).
	MaxSteps int64
	// MaxMem bounds the flat memory in bytes; allocations beyond it trap
	// with TrapMemLimit (default 64 MiB).
	MaxMem int64
	// MaxDepth bounds the call stack; deeper calls trap with
	// TrapCallDepth (default 4096).
	MaxDepth int

	mem        []byte
	brk        int64
	depth      int
	spans      []span
	globalAddr map[*ir.Global]int64
	funcAddr   map[int64]*ir.Func
	nextFnAddr int64
}

// span is one live allocation. Accesses must fall entirely inside a
// single span; anything else traps with TrapOutOfBounds. Spans are
// separated by redZone bytes of unmapped address space so that
// out-of-bounds offsets land between objects instead of silently
// aliasing the next allocation — essential when the interpreter serves
// as a differential-testing oracle, where transformed modules lay
// objects out at different addresses.
type span struct{ start, end int64 }

// redZone is the guard gap between allocations.
const redZone = 4096

// New returns an interpreter for mod with globals laid out and
// initialized in memory.
func New(mod *ir.Module) (*Interp, error) {
	in := &Interp{
		Mod:        mod,
		Externs:    make(map[string]ExternFunc),
		MaxSteps:   10_000_000,
		MaxMem:     64 << 20,
		MaxDepth:   4096,
		mem:        make([]byte, 1<<16),
		brk:        16, // keep 0 (null) and small addresses invalid
		globalAddr: make(map[*ir.Global]int64),
		funcAddr:   make(map[int64]*ir.Func),
		nextFnAddr: -1024,
	}
	for _, g := range mod.Globals {
		addr, err := in.Alloc(int64(g.Elem.Size()), int64(g.Elem.Align()))
		if err != nil {
			return nil, fmt.Errorf("interp: allocating @%s: %w", g.Name, err)
		}
		in.globalAddr[g] = addr
		if g.Init != nil {
			if err := in.storeConst(addr, g.Elem, g.Init); err != nil {
				return nil, fmt.Errorf("interp: initializing @%s: %w", g.Name, err)
			}
		}
	}
	return in, nil
}

// Alloc reserves size bytes with the given alignment and returns the
// address. Memory grows as needed and is zero-initialized; growth past
// MaxMem traps with TrapMemLimit.
func (in *Interp) Alloc(size, align int64) (int64, error) {
	if size < 0 {
		return 0, &Trap{Kind: TrapBadAlloca, Detail: fmt.Sprintf("negative size %d", size)}
	}
	if align < 1 {
		align = 1
	}
	addr := (in.brk + align - 1) / align * align
	if size > in.MaxMem || addr > in.MaxMem-size {
		return 0, &Trap{Kind: TrapMemLimit, Detail: fmt.Sprintf("%d bytes at break %d (limit %d)", size, in.brk, in.MaxMem)}
	}
	in.spans = append(in.spans, span{start: addr, end: addr + size})
	in.brk = addr + size + redZone
	for int64(len(in.mem)) < addr+size {
		in.mem = append(in.mem, make([]byte, len(in.mem))...)
	}
	return addr, nil
}

// checkRange traps unless [addr, addr+size) lies entirely inside one
// live allocation.
func (in *Interp) checkRange(addr, size int64) error {
	if addr < 16 || size < 0 {
		return &Trap{Kind: TrapOutOfBounds, Detail: fmt.Sprintf("address %d, size %d", addr, size)}
	}
	// Find the last span starting at or before addr; spans are sorted
	// because the bump allocator hands out monotonically increasing
	// addresses.
	i := sort.Search(len(in.spans), func(i int) bool { return in.spans[i].start > addr })
	if i == 0 || addr+size > in.spans[i-1].end {
		return &Trap{Kind: TrapOutOfBounds, Detail: fmt.Sprintf("address %d, size %d outside any allocation", addr, size)}
	}
	return nil
}

// LoadBytes copies size bytes at addr.
func (in *Interp) LoadBytes(addr, size int64) ([]byte, error) {
	if err := in.checkRange(addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, in.mem[addr:addr+size])
	return out, nil
}

// LoadTyped reads a scalar of type t at addr.
func (in *Interp) LoadTyped(addr int64, t ir.Type) (Val, error) {
	size := int64(t.Size())
	if err := in.checkRange(addr, size); err != nil {
		return Val{}, err
	}
	switch t := t.(type) {
	case ir.IntType:
		var u uint64
		switch t.Size() {
		case 1:
			u = uint64(in.mem[addr])
		case 2:
			u = uint64(binary.LittleEndian.Uint16(in.mem[addr:]))
		case 4:
			u = uint64(binary.LittleEndian.Uint32(in.mem[addr:]))
		default:
			u = binary.LittleEndian.Uint64(in.mem[addr:])
		}
		return IntVal(signExtend(u, t.Bits)), nil
	case ir.FloatType:
		if t.Bits == 32 {
			u := binary.LittleEndian.Uint32(in.mem[addr:])
			return FloatVal(float64(math.Float32frombits(u))), nil
		}
		u := binary.LittleEndian.Uint64(in.mem[addr:])
		return FloatVal(math.Float64frombits(u)), nil
	case ir.PointerType:
		return IntVal(int64(binary.LittleEndian.Uint64(in.mem[addr:]))), nil
	}
	return Val{}, fmt.Errorf("interp: load of non-scalar type %s", t)
}

// StoreTyped writes a scalar of type t at addr.
func (in *Interp) StoreTyped(addr int64, t ir.Type, v Val) error {
	size := int64(t.Size())
	if err := in.checkRange(addr, size); err != nil {
		return err
	}
	switch t := t.(type) {
	case ir.IntType:
		switch t.Size() {
		case 1:
			in.mem[addr] = byte(v.I)
		case 2:
			binary.LittleEndian.PutUint16(in.mem[addr:], uint16(v.I))
		case 4:
			binary.LittleEndian.PutUint32(in.mem[addr:], uint32(v.I))
		default:
			binary.LittleEndian.PutUint64(in.mem[addr:], uint64(v.I))
		}
		return nil
	case ir.FloatType:
		if t.Bits == 32 {
			binary.LittleEndian.PutUint32(in.mem[addr:], math.Float32bits(float32(v.F)))
			return nil
		}
		binary.LittleEndian.PutUint64(in.mem[addr:], math.Float64bits(v.F))
		return nil
	case ir.PointerType:
		binary.LittleEndian.PutUint64(in.mem[addr:], uint64(v.I))
		return nil
	}
	return fmt.Errorf("interp: store of non-scalar type %s", t)
}

func (in *Interp) storeConst(addr int64, t ir.Type, c ir.Const) error {
	switch c := c.(type) {
	case *ir.IntConst:
		return in.StoreTyped(addr, c.Typ, IntVal(c.Val))
	case *ir.FloatConst:
		return in.StoreTyped(addr, c.Typ, FloatVal(c.Val))
	case *ir.NullConst:
		return in.StoreTyped(addr, c.Typ, IntVal(0))
	case *ir.ZeroConst:
		return nil // memory is already zero
	case *ir.ArrayConst:
		elem := c.Typ.Elem
		for i, e := range c.Elems {
			if err := in.storeConst(addr+int64(i*elem.Size()), elem, e); err != nil {
				return err
			}
		}
		return nil
	case *ir.UndefConst:
		return nil
	}
	return fmt.Errorf("interp: unsupported constant initializer")
}

func signExtend(u uint64, bits int) int64 {
	if bits >= 64 {
		return int64(u)
	}
	shift := uint(64 - bits)
	return int64(u<<shift) >> shift
}

// Call executes the named function with the given arguments.
func (in *Interp) Call(name string, args ...Val) (Val, error) {
	f := in.Mod.FindFunc(name)
	if f == nil {
		return Val{}, fmt.Errorf("interp: no function @%s", name)
	}
	return in.CallFunc(f, args)
}

// CallFunc executes f with args.
func (in *Interp) CallFunc(f *ir.Func, args []Val) (Val, error) {
	if f.IsDecl() {
		return in.callExtern(f, args)
	}
	if len(args) != len(f.Params) {
		return Val{}, fmt.Errorf("interp: call @%s with %d args, want %d", f.Name, len(args), len(f.Params))
	}
	if in.depth >= in.MaxDepth && in.MaxDepth > 0 {
		return Val{}, &Trap{Kind: TrapCallDepth, Detail: fmt.Sprintf("@%s at depth %d", f.Name, in.depth)}
	}
	in.depth++
	defer func() { in.depth-- }()
	frame := make(map[ir.Value]Val, f.NumInstrs()+len(args))
	for i, p := range f.Params {
		frame[p] = args[i]
	}
	savedBrk := in.brk // reclaim stack allocas on return
	defer func() { in.brk = savedBrk }()

	block := f.Entry()
	var prev *ir.Block
	for {
		next, ret, done, err := in.execBlock(f, block, prev, frame)
		if err != nil {
			return Val{}, err
		}
		if done {
			return ret, nil
		}
		prev, block = block, next
	}
}

func (in *Interp) execBlock(f *ir.Func, b, prev *ir.Block, frame map[ir.Value]Val) (next *ir.Block, ret Val, done bool, err error) {
	// Phis first, in parallel.
	phis := b.Phis()
	if len(phis) > 0 {
		vals := make([]Val, len(phis))
		for i, phi := range phis {
			inc, ok := phi.PhiIncoming(prev)
			if !ok {
				return nil, Val{}, false, fmt.Errorf("interp: phi %%%s has no incoming from %%%s", phi.Name, prev.Name)
			}
			v, err := in.eval(inc, frame)
			if err != nil {
				return nil, Val{}, false, err
			}
			vals[i] = v
		}
		for i, phi := range phis {
			frame[phi] = vals[i]
		}
		in.Steps += int64(len(phis))
	}
	for _, instr := range b.Instrs[len(phis):] {
		in.Steps++
		if in.Steps > in.MaxSteps {
			return nil, Val{}, false, &Trap{Kind: TrapStepLimit, Detail: "in @" + f.Name}
		}
		switch instr.Op {
		case ir.OpBr:
			return instr.Blocks[0], Val{}, false, nil
		case ir.OpCondBr:
			c, err := in.eval(instr.Operand(0), frame)
			if err != nil {
				return nil, Val{}, false, err
			}
			if c.I != 0 {
				return instr.Blocks[0], Val{}, false, nil
			}
			return instr.Blocks[1], Val{}, false, nil
		case ir.OpRet:
			if len(instr.Operands) == 0 {
				return nil, Val{}, true, nil
			}
			v, err := in.eval(instr.Operand(0), frame)
			if err != nil {
				return nil, Val{}, false, err
			}
			return nil, v, true, nil
		default:
			v, err := in.execInstr(instr, frame)
			if err != nil {
				return nil, Val{}, false, fmt.Errorf("%w\n  in @%s: %s", err, f.Name, instr)
			}
			if !ir.IsVoid(instr.Typ) {
				frame[instr] = v
			}
		}
	}
	return nil, Val{}, false, fmt.Errorf("interp: block %%%s fell through", b.Name)
}
