package backend

import (
	"encoding/binary"
	"math"

	"rolag/internal/backend/encode"
	"rolag/internal/backend/mach"
	"rolag/internal/ir"
	"rolag/internal/obs"
)

// Backend phases appear in obs.SpanStats alongside the RoLAG pipeline
// phases, so -stats and end-to-end traces show lowering and encoding
// time next to seed/align/schedule/codegen.
var (
	lowerSpan  = obs.RegisterSpanClass("lower")
	encodeSpan = obs.RegisterSpanClass("encode")
)

// Result pairs a lowered machine module with its encoding.
type Result struct {
	Mach *mach.Module
	Code *encode.ModuleCode
}

// Lower lowers an IR module to machine code: instruction selection,
// register allocation, and frame layout for every function definition
// (declarations are skipped — they contribute no bytes).
func Lower(m *ir.Module, rec *obs.Recorder) (*mach.Module, error) {
	start := obs.Now()
	ml := &modLower{
		out:    &mach.Module{Name: m.Name},
		fpPool: make(map[uint64]string),
	}
	for _, irf := range m.Funcs {
		if len(irf.Blocks) == 0 {
			continue
		}
		f := &mach.Func{Name: irf.Name}
		s := &isel{
			ml:         ml,
			irf:        irf,
			f:          f,
			vreg:       make(map[ir.Value]mach.Reg),
			phiTmp:     make(map[*ir.Instr]mach.Reg),
			allocaSlot: make(map[*ir.Instr]int),
			gepAddr:    make(map[*ir.Instr]addr),
			foldedCmp:  make(map[*ir.Instr]bool),
		}
		if err := s.lowerFunc(); err != nil {
			return nil, err
		}
		regalloc(f)
		finalizeFrame(f)
		ml.out.Funcs = append(ml.out.Funcs, f)
	}
	// Rodata: global data in module order, then the float literal pool
	// in first-use order. Nothing here is ever executed or linked —
	// writable globals land in .rodata too, which keeps the printed
	// assembly self-contained for a system assembler without changing
	// any measured .text byte. (.data vs .rodata placement does not
	// affect code size.)
	//
	// Zero bytes stay implicit: a zero-initialized global is all tail,
	// and any other symbol's trailing zeros move into its tail.
	for _, g := range m.Globals {
		sym := mach.RodataSym{Name: g.Name, Align: int64(g.Elem.Align())}
		switch g.Init.(type) {
		case nil, *ir.ZeroConst:
			sym.Zero = int64(max(g.Elem.Size(), 0))
		default:
			sym.Data = serializeConst(g.Init, g.Elem)
		}
		ml.out.Rodata = append(ml.out.Rodata, sym)
	}
	ml.out.Rodata = append(ml.out.Rodata, ml.fpOrder...)
	for i := range ml.out.Rodata {
		s := &ml.out.Rodata[i]
		n := len(s.Data)
		for n > 0 && s.Data[n-1] == 0 {
			n--
		}
		s.Zero += int64(len(s.Data) - n)
		s.Data = s.Data[:n]
	}
	lowerSpan.End(rec.TraceCtx(), start)
	return ml.out, nil
}

// Encode encodes a lowered module, timing it under the "encode" span.
func Encode(mm *mach.Module, rec *obs.Recorder) (*encode.ModuleCode, error) {
	start := obs.Now()
	code, err := encode.Module(mm)
	encodeSpan.End(rec.TraceCtx(), start)
	return code, err
}

// Compile lowers and encodes m in one step.
func Compile(m *ir.Module, rec *obs.Recorder) (*Result, error) {
	mm, err := Lower(m, rec)
	if err != nil {
		return nil, err
	}
	code, err := Encode(mm, rec)
	if err != nil {
		return nil, err
	}
	return &Result{Mach: mm, Code: code}, nil
}

// Asm renders the result as AT&T assembly with per-function byte
// annotations from the encoder.
func (r *Result) Asm() string {
	ann := make(map[string]int64, len(r.Code.Funcs))
	for name, fc := range r.Code.Funcs {
		ann[name] = fc.Size()
	}
	return mach.Print(r.Mach, ann)
}

// serializeConst flattens a global initializer to its in-memory bytes
// (little-endian). A nil initializer serializes as zeros.
func serializeConst(c ir.Const, t ir.Type) []byte {
	size := t.Size()
	if size < 0 {
		size = 0
	}
	out := make([]byte, 0, size)
	out = appendConst(out, c, t)
	// Pad (or clamp) to the declared type size.
	for len(out) < size {
		out = append(out, 0)
	}
	return out[:size]
}

func appendConst(out []byte, c ir.Const, t ir.Type) []byte {
	switch c := c.(type) {
	case *ir.IntConst:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Val))
		return append(out, buf[:c.Typ.Size()]...)
	case *ir.FloatConst:
		if c.Typ.Bits == 32 {
			return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(c.Val)))
		}
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Val))
	case *ir.ArrayConst:
		stride := c.Typ.Elem.Size()
		for _, e := range c.Elems {
			start := len(out)
			out = appendConst(out, e, c.Typ.Elem)
			for len(out)-start < stride {
				out = append(out, 0)
			}
		}
		return out
	}
	// NullConst, UndefConst, ZeroConst, nil: zero bytes of t's size.
	return append(out, make([]byte, t.Size())...)
}
