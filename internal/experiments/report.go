package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	rl "rolag/internal/rolag"
)

// Report renders every experiment artifact as a text table and a CSV,
// mirroring the figures/tables of the paper.
type Report struct {
	// Dir receives the CSV files; empty disables file output.
	Dir string
	// W receives the human-readable tables (default os.Stdout).
	W io.Writer
}

func (r *Report) w() io.Writer {
	if r.W == nil {
		return os.Stdout
	}
	return r.W
}

func (r *Report) writeCSV(name string, header []string, rows [][]string) error {
	if r.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteByte('\n')
	for _, row := range rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(r.Dir, name), []byte(sb.String()), 0o644)
}

// Fig15 renders the AnghaBench reduction curve.
func (r *Report) Fig15(s *AnghaSummary) error {
	fmt.Fprintf(r.w(), "\n== Fig. 15: code-size reduction on the AnghaBench corpus ==\n")
	fmt.Fprintf(r.w(), "corpus: %d functions; affected by RoLAG: %d; by LLVM rerolling: %d\n",
		s.Total, len(s.Affected), s.AffectedLLVM)
	fmt.Fprintf(r.w(), "mean reduction over affected functions: %.2f%% (paper: 9.12%%)\n", s.MeanReduction)
	fmt.Fprintf(r.w(), "best: %.2f%% (paper: ~90%%, the KVM field copy); regressions: %d\n",
		s.BestReduction, s.Regressions)
	fmt.Fprintf(r.w(), "curve (sorted reduction %%, every 10th function):\n  ")
	for i, a := range s.Affected {
		if i%10 == 0 {
			fmt.Fprintf(r.w(), "%.0f ", a.Red())
		}
	}
	fmt.Fprintln(r.w())
	rows := make([][]string, 0, len(s.Affected))
	for i, a := range s.Affected {
		rows = append(rows, []string{
			fmt.Sprint(i), a.Name, a.Family,
			fmt.Sprint(a.SizeBase), fmt.Sprint(a.SizeRoLAG), fmt.Sprintf("%.3f", a.Red()),
		})
	}
	return r.writeCSV("fig15-angha-curve.csv",
		[]string{"rank", "function", "family", "size_base", "size_rolag", "reduction_pct"}, rows)
}

// nodeKindOrder is the presentation order for breakdowns.
var nodeKindOrder = []rl.NodeKind{
	rl.KindMatch, rl.KindIdentical, rl.KindMismatch, rl.KindIntSeq,
	rl.KindRecurrence, rl.KindReduction, rl.KindJoint,
}

func (r *Report) nodeBreakdown(title, csvName string, counts map[rl.NodeKind]int) error {
	fmt.Fprintf(r.w(), "\n== %s ==\n", title)
	total := 0
	for _, c := range counts {
		total += c
	}
	var rows [][]string
	for _, k := range nodeKindOrder {
		c := counts[k]
		pctv := 0.0
		if total > 0 {
			pctv = 100 * float64(c) / float64(total)
		}
		fmt.Fprintf(r.w(), "  %-11s %6d (%5.1f%%)\n", k, c, pctv)
		rows = append(rows, []string{k.String(), fmt.Sprint(c), fmt.Sprintf("%.2f", pctv)})
	}
	return r.writeCSV(csvName, []string{"node_kind", "count", "pct"}, rows)
}

// Fig16 renders the AnghaBench node-kind breakdown.
func (r *Report) Fig16(s *AnghaSummary) error {
	return r.nodeBreakdown("Fig. 16: node kinds in profitable alignment graphs (AnghaBench)",
		"fig16-angha-nodes.csv", s.NodeCounts)
}

// Rejections renders the rejected-by-reason breakdown built from the
// corpus run's optimization remarks: every candidate RoLAG considered
// and turned down, keyed by the stable reason code.
func (r *Report) Rejections(s *AnghaSummary) error {
	fmt.Fprintf(r.w(), "\n== Rejected rolling decisions by reason (AnghaBench, from remarks) ==\n")
	if len(s.RejectedByReason) == 0 {
		fmt.Fprintln(r.w(), "  (no rejections recorded)")
		return nil
	}
	total := 0
	for _, rc := range s.RejectedByReason {
		total += rc.Count
	}
	var rows [][]string
	for _, rc := range s.RejectedByReason {
		fmt.Fprintf(r.w(), "  %-26s %6d (%5.1f%%)\n", rc.Reason, rc.Count, 100*float64(rc.Count)/float64(total))
		rows = append(rows, []string{rc.Reason, fmt.Sprint(rc.Count)})
	}
	return r.writeCSV("angha-rejections.csv", []string{"reason", "count"}, rows)
}

// Table1 renders the MiBench/SPEC table.
func (r *Report) Table1(rows []Table1Row) error {
	fmt.Fprintf(r.w(), "\n== Table I: code reduction on full programs (MiBench, SPEC 2017) ==\n")
	fmt.Fprintf(r.w(), "%-8s %-16s %10s %10s %8s %8s %6s\n",
		"suite", "program", "size KB", "red KB", "red %", "paper %", "loops")
	var csvRows [][]string
	for _, row := range rows {
		fmt.Fprintf(r.w(), "%-8s %-16s %10.1f %10.2f %8.2f %8.2f %6d\n",
			row.Suite, row.Name, row.SizeKB, row.ReductionKB, row.ReductionPct, row.PaperRedPct, row.RolledLoops)
		csvRows = append(csvRows, []string{
			row.Suite, row.Name,
			fmt.Sprintf("%.2f", row.SizeKB), fmt.Sprintf("%.3f", row.ReductionKB),
			fmt.Sprintf("%.3f", row.ReductionPct), fmt.Sprintf("%.2f", row.PaperRedPct),
			fmt.Sprint(row.RolledLoops), fmt.Sprint(row.LLVMRerolled),
		})
	}
	return r.writeCSV("table1-programs.csv",
		[]string{"suite", "program", "size_kb", "reduction_kb", "reduction_pct", "paper_pct", "rolled_loops", "llvm_rerolled"}, csvRows)
}

// Fig17 renders the TSVC per-kernel bars and suite means.
func (r *Report) Fig17(s *TSVCSummary) error {
	fmt.Fprintf(r.w(), "\n== Fig. 17: code-size reduction on TSVC (unrolled x8) ==\n")
	fmt.Fprintf(r.w(), "mean over all %d kernels: LLVM %.2f%% (paper 13.69%%), RoLAG %.2f%% (paper 23.4%%)\n",
		len(s.Results), s.MeanLLVM, s.MeanRoLAG)
	fmt.Fprintf(r.w(), "kernels profitably rerolled: LLVM %d (paper 38), RoLAG %d (paper 84)\n",
		s.AffectedLLVM, s.AffectedRoLAG)
	fmt.Fprintf(r.w(), "with loop flattening after RoLAG (the paper's suggested cleanup): mean %.2f%%\n", s.MeanFlat)
	fmt.Fprintf(r.w(), "%-10s %8s %8s %8s\n", "kernel", "llvm%", "rolag%", "oracle%")
	var rows [][]string
	for _, res := range s.Results {
		if res.RedLLVM() != 0 || res.RedRoLAG() != 0 {
			fmt.Fprintf(r.w(), "%-10s %8.1f %8.1f %8.1f\n", res.Name, res.RedLLVM(), res.RedRoLAG(), res.RedOracle())
		}
		rows = append(rows, []string{
			res.Name,
			fmt.Sprintf("%.3f", res.RedLLVM()), fmt.Sprintf("%.3f", res.RedRoLAG()),
			fmt.Sprintf("%.3f", res.RedOracle()),
			fmt.Sprint(res.LLVMRerolled), fmt.Sprint(res.RoLAGRolled),
		})
	}
	return r.writeCSV("fig17-tsvc-bars.csv",
		[]string{"kernel", "red_llvm_pct", "red_rolag_pct", "red_oracle_pct", "llvm_rerolled", "rolag_rolled"}, rows)
}

// Fig18 renders the oracle-vs-RoLAG curve.
func (r *Report) Fig18(s *TSVCSummary) error {
	fmt.Fprintf(r.w(), "\n== Fig. 18: oracle vs RoLAG across the whole TSVC suite ==\n")
	fmt.Fprintf(r.w(), "oracle mean %.2f%% (paper 55.5%%), RoLAG mean %.2f%% (paper 23.4%%)\n",
		s.MeanOracle, s.MeanRoLAG)
	sorted := append([]TSVCResult(nil), s.Results...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].RedOracle() > sorted[j].RedOracle() })
	fmt.Fprintf(r.w(), "oracle curve (every 10th): ")
	for i, res := range sorted {
		if i%10 == 0 {
			fmt.Fprintf(r.w(), "%.0f ", res.RedOracle())
		}
	}
	fmt.Fprintln(r.w())
	var rows [][]string
	for i, res := range sorted {
		rows = append(rows, []string{
			fmt.Sprint(i), res.Name,
			fmt.Sprintf("%.3f", res.RedOracle()), fmt.Sprintf("%.3f", res.RedRoLAG()),
		})
	}
	return r.writeCSV("fig18-tsvc-curve.csv",
		[]string{"rank", "kernel", "red_oracle_pct", "red_rolag_pct"}, rows)
}

// Fig19 renders the TSVC node-kind breakdown plus the special-node
// ablation.
func (r *Report) Fig19(s *TSVCSummary) error {
	if err := r.nodeBreakdown("Fig. 19: node kinds in profitable alignment graphs (TSVC)",
		"fig19-tsvc-nodes.csv", s.NodeCounts); err != nil {
		return err
	}
	fmt.Fprintf(r.w(), "ablation: with special nodes disabled, %d kernels reroll profitably instead of %d (paper: 19 vs 84)\n",
		s.AffectedNoSpecial, s.AffectedRoLAG)
	if s.AffectedExtensions > 0 {
		fmt.Fprintf(r.w(), "extensions (min/max reductions, beyond the paper): %d kernels, mean %.2f%%\n",
			s.AffectedExtensions, s.MeanExtensions)
	}
	return nil
}

// Calib renders the cost-model calibration summary and writes the
// machine-readable CALIB_costmodel.json that pins the model's error
// bars against the assembly backend across PRs.
func (r *Report) Calib(c *CalibReport) error {
	fmt.Fprintf(r.w(), "\n== Cost-model calibration vs assembly backend (%d functions, seed %d) ==\n",
		c.Functions, c.Seed)
	fmt.Fprintf(r.w(), "MAPE:            %.2f%%  (gate: <= %.0f%%)\n", 100*c.MAPE, 100*calibMaxMAPE)
	fmt.Fprintf(r.w(), "sign agreement:  %.2f%%  (gate: >= %.0f%%, %d disagreements)\n",
		100*c.SignAgreement, 100*calibMinSignAgreement, c.Disagreements)
	fmt.Fprintf(r.w(), "changed by RoLAG: %d functions, measured mean delta %.1f bytes (model: %.1f)\n",
		c.Changed, c.MeanMeasuredDelta, c.MeanEstimatedDelta)
	fams := make([]string, 0, len(c.FamilyMAPE))
	for fam := range c.FamilyMAPE {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		fmt.Fprintf(r.w(), "  family %-12s MAPE %.2f%%\n", fam, 100*c.FamilyMAPE[fam])
	}
	if r.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.Dir, "CALIB_costmodel.json"), append(data, '\n'), 0o644)
}

// Perf renders the §V.D runtime overhead summary.
func (r *Report) Perf(s *TSVCSummary) error {
	fmt.Fprintf(r.w(), "\n== §V.D: performance overhead on TSVC ==\n")
	fmt.Fprintf(r.w(), "mean relative performance of rolled code (interpreted steps): %.2fx (paper: 0.8x)\n", s.RelPerf)
	var rows [][]string
	for _, res := range s.Results {
		if res.StepsBase > 0 {
			rows = append(rows, []string{
				res.Name, fmt.Sprint(res.StepsBase), fmt.Sprint(res.StepsRoLAG),
				fmt.Sprintf("%.3f", float64(res.StepsBase)/float64(res.StepsRoLAG)),
			})
		}
	}
	return r.writeCSV("perf-tsvc.csv",
		[]string{"kernel", "steps_base", "steps_rolag", "relative_perf"}, rows)
}
