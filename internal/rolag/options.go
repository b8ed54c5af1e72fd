// Package rolag implements RoLAG, the paper's loop-rolling optimization
// for straight-line code (Rocha et al., CGO 2022). RoLAG aligns the SSA
// graphs hanging off groups of seed instructions (stores, calls,
// reduction roots) bottom-up into an alignment graph, verifies with a
// scheduling analysis that the matched instructions can be rearranged
// into loop iterations, generates a rolled loop, and keeps it only when
// a code-size cost model says the loop is smaller than the straight-line
// original.
package rolag

// Options control which parts of the technique are enabled; the defaults
// match the full system described in the paper. The Enable* flags exist
// for the Fig. 19 ablation (special nodes off collapses profitable rolls
// to a small fraction).
type Options struct {
	// EnableIntSeq enables monotonic integer sequence nodes (§IV.C1).
	EnableIntSeq bool
	// EnableNeutralPtr enables the gep/pointer identity (§IV.C2).
	EnableNeutralPtr bool
	// EnableNeutralBinOp enables neutral-element padding for binary
	// operations (§IV.C3).
	EnableNeutralBinOp bool
	// EnableCommutative enables similarity-driven operand reordering of
	// commutative operations (§IV.C3).
	EnableCommutative bool
	// EnableRecurrence enables chained-dependence recurrence nodes
	// (§IV.C4).
	EnableRecurrence bool
	// EnableReduction enables reduction-tree seeds (§IV.C5).
	EnableReduction bool
	// EnableJoint enables joining alternating seed groups (§IV.C6).
	EnableJoint bool
	// EnableMinMaxReduction enables select-based min/max reduction
	// trees. The paper lists this as unsupported future work (§V.C,
	// Fig. 20b); it is implemented here as an extension and therefore
	// ships disabled in DefaultOptions.
	EnableMinMaxReduction bool
	// EnableMismatch allows mismatching nodes (lowered to arrays); when
	// false, any mismatch aborts the candidate.
	EnableMismatch bool
	// FastMath permits reassociating floating-point reductions.
	FastMath bool
	// AlwaysRoll skips the profitability analysis and keeps every valid
	// rolled loop (ablation of §IV.F).
	AlwaysRoll bool
}

// DefaultOptions returns the full configuration used in the paper's main
// evaluation.
func DefaultOptions() *Options {
	return &Options{
		EnableIntSeq:       true,
		EnableNeutralPtr:   true,
		EnableNeutralBinOp: true,
		EnableCommutative:  true,
		EnableRecurrence:   true,
		EnableReduction:    true,
		EnableJoint:        true,
		EnableMismatch:     true,
		FastMath:           false,
	}
}

// Extensions returns the default configuration plus the beyond-paper
// extensions (currently select-based min/max reductions).
func Extensions() *Options {
	o := DefaultOptions()
	o.EnableMinMaxReduction = true
	return o
}

// NoSpecialNodes returns options with every special node kind disabled,
// keeping only plain match/identical/mismatch alignment — the ablation in
// Fig. 19 of the paper.
func NoSpecialNodes() *Options {
	o := DefaultOptions()
	o.EnableIntSeq = false
	o.EnableNeutralPtr = false
	o.EnableNeutralBinOp = false
	o.EnableCommutative = false
	o.EnableRecurrence = false
	o.EnableReduction = false
	o.EnableJoint = false
	return o
}

// NodeKind classifies alignment-graph nodes (see §IV.B–C).
type NodeKind int

// Alignment-graph node kinds.
const (
	KindInvalid NodeKind = iota
	// KindMatch groups isomorphic instructions merged into one
	// instruction in the rolled loop.
	KindMatch
	// KindIdentical groups lanes that are all the same value
	// (loop-invariant).
	KindIdentical
	// KindMismatch groups differing values, lowered to an array indexed
	// by the induction variable.
	KindMismatch
	// KindIntSeq is a monotonic integer sequence start..end,step lowered
	// to a linear function of the induction variable.
	KindIntSeq
	// KindRecurrence is a chained dependence lowered to a phi.
	KindRecurrence
	// KindReduction represents a whole reduction tree, lowered to an
	// accumulator phi plus one binary operation.
	KindReduction
	// KindJoint stitches alternating seed groups into one loop body; it
	// generates no code itself.
	KindJoint
)

var kindNames = map[NodeKind]string{
	KindMatch:      "match",
	KindIdentical:  "identical",
	KindMismatch:   "mismatch",
	KindIntSeq:     "sequence",
	KindRecurrence: "recurrence",
	KindReduction:  "reduction",
	KindJoint:      "joint",
}

func (k NodeKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "invalid"
}

// Stats aggregates outcomes of a RoLAG run. NodeCounts tallies node kinds
// appearing in profitable (kept) alignment graphs, reproducing the
// breakdowns of Fig. 16 and Fig. 19.
type Stats struct {
	BlocksScanned  int
	SeedGroups     int
	GraphsBuilt    int
	ScheduleFailed int
	NotProfitable  int
	LoopsRolled    int
	NodeCounts     map[NodeKind]int
	InstrsRolled   int
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{NodeCounts: make(map[NodeKind]int)}
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.BlocksScanned += other.BlocksScanned
	s.SeedGroups += other.SeedGroups
	s.GraphsBuilt += other.GraphsBuilt
	s.ScheduleFailed += other.ScheduleFailed
	s.NotProfitable += other.NotProfitable
	s.LoopsRolled += other.LoopsRolled
	s.InstrsRolled += other.InstrsRolled
	for k, v := range other.NodeCounts {
		s.NodeCounts[k] += v
	}
}
