package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Remark statuses, following the LLVM remark vocabulary: "passed" for
// an applied transformation, "missed" for a rejected one (Reason names
// the stable rejection code), and "analysis" for intermediate facts
// the optimizer established on the way.
const (
	StatusPassed   = "passed"
	StatusMissed   = "missed"
	StatusAnalysis = "analysis"
)

// Remark is one optimizer decision with provenance. The struct holds
// no timestamps, pointers, or other run-varying state: two compilations
// of the same input must produce byte-identical remark streams, which
// is what makes the streams diffable and cacheable. Field order is the
// serialization order for both JSON and YAML.
type Remark struct {
	// Pass is the emitting pass: "rolag" or "reroll".
	Pass string `json:"pass"`
	// Name is the decision kind within the pass (the remark taxonomy is
	// documented in DESIGN.md): "seed", "align-node", "align-reject",
	// "schedule-reject", "not-profitable", "rolled", "rerolled",
	// "reroll-reject".
	Name string `json:"name"`
	// Status is StatusPassed, StatusMissed, or StatusAnalysis.
	Status string `json:"status"`
	// Func, Block, and Instr locate the decision. Instr is an SSA name
	// ("%t35") when the anchor instruction produces a value, or
	// "op@index" ("store@12") when it does not.
	Func  string `json:"func"`
	Block string `json:"block,omitempty"`
	Instr string `json:"instr,omitempty"`
	// Kind carries a per-name discriminator: the seed-group kind for
	// "seed", the node kind for "align-node", the lane type for
	// mismatch nodes.
	Kind string `json:"kind,omitempty"`
	// Reason is the stable machine-readable rejection code for missed
	// remarks (e.g. "memory-reorder", "not-profitable"); aggregation
	// keys on it, human text goes in Detail.
	Reason string `json:"reason,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail,omitempty"`
	// Lanes is the number of lanes involved (seed width, roll factor).
	Lanes int `json:"lanes,omitempty"`
	// CostBefore/CostAfter/DeltaBytes report the cost-model verdict in
	// bytes (Delta = after - before, negative when the roll shrinks the
	// function). Set on "rolled" and "not-profitable".
	// A "not-profitable" remark whose Detail is BoundDetail was decided
	// before codegen: its CostAfter and DeltaBytes are lower bounds.
	CostBefore int `json:"costBefore,omitempty"`
	CostAfter  int `json:"costAfter,omitempty"`
	DeltaBytes int `json:"deltaBytes,omitempty"`
}

// BoundDetail is the Detail of a "not-profitable" remark rejected on a
// lower bound of the roll's cost, without generating the loop.
const BoundDetail = "not profitable: lower bound on the cost after; no loop generated"

// Collector accumulates remarks for one function. It is append-only
// and NOT safe for concurrent use: the pipeline gives every function
// execution a private Collector and keeps it only when the execution
// commits, appending kept remarks in function order.
type Collector struct {
	remarks []Remark
}

// Add appends one remark. A nil Collector drops it.
func (c *Collector) Add(r Remark) {
	if c != nil {
		c.remarks = append(c.remarks, r)
	}
}

// Remarks returns the collected remarks in emission order.
func (c *Collector) Remarks() []Remark {
	if c == nil {
		return nil
	}
	return c.remarks
}

// Recorder bundles the per-compilation observability state threaded
// through the optimizer: the remark collector and the request trace.
// A nil *Recorder (or a nil Collector inside one) disables remarks;
// every method is nil-safe so hot-path call sites stay unconditional.
type Recorder struct {
	// Remarks receives emitted remarks; nil disables collection.
	Remarks *Collector
	// Trace is the request's trace context; the zero value is inactive.
	Trace TraceContext
}

// On reports whether remark emission is enabled. Emission sites guard
// remark construction with it so the disabled path allocates nothing.
func (r *Recorder) On() bool { return r != nil && r.Remarks != nil }

// Add appends one remark to the underlying collector (nil-safe).
func (r *Recorder) Add(rm Remark) {
	if r != nil {
		r.Remarks.Add(rm)
	}
}

// TraceCtx returns the trace context (zero for a nil Recorder).
func (r *Recorder) TraceCtx() TraceContext {
	if r == nil {
		return TraceContext{}
	}
	return r.Trace
}

// WriteJSON serializes remarks as an indented JSON array. The output
// is deterministic: field order is the Remark declaration order and no
// run-varying data exists in a Remark.
func WriteJSON(w io.Writer, remarks []Remark) error {
	if remarks == nil {
		remarks = []Remark{}
	}
	data, err := json.MarshalIndent(remarks, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteYAML serializes remarks as a YAML sequence of mappings, one
// document, same field order and determinism as WriteJSON. The emitter
// is hand-rolled (the repo takes no external dependencies): scalars
// are double-quoted with JSON-compatible escaping, which every YAML
// parser accepts.
func WriteYAML(w io.Writer, remarks []Remark) error {
	var sb strings.Builder
	if len(remarks) == 0 {
		sb.WriteString("[]\n")
	}
	for _, r := range remarks {
		first := true
		field := func(key, val string) {
			if val == "" {
				return
			}
			if first {
				sb.WriteString("- ")
				first = false
			} else {
				sb.WriteString("  ")
			}
			sb.WriteString(key)
			sb.WriteString(": ")
			sb.WriteString(yamlScalar(val))
			sb.WriteByte('\n')
		}
		num := func(key string, v int) {
			if v != 0 {
				field(key, strconv.Itoa(v))
			}
		}
		field("pass", r.Pass)
		field("name", r.Name)
		field("status", r.Status)
		field("func", r.Func)
		field("block", r.Block)
		field("instr", r.Instr)
		field("kind", r.Kind)
		field("reason", r.Reason)
		field("detail", r.Detail)
		num("lanes", r.Lanes)
		num("costBefore", r.CostBefore)
		num("costAfter", r.CostAfter)
		num("deltaBytes", r.DeltaBytes)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// yamlScalar renders one scalar value. Numbers pass through bare;
// strings are double-quoted via the JSON encoder (a strict subset of
// YAML double-quoted style).
func yamlScalar(s string) string {
	if s != "" && strings.IndexFunc(s, func(r rune) bool { return r < '0' || r > '9' }) < 0 {
		return s
	}
	q, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("%q", s)
	}
	return string(q)
}
