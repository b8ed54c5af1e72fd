package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Explain renders a human-readable "why did/didn't this roll" report
// from a remark stream. fn filters to one function; "" or "all" keeps
// every function. The report walks functions in first-remark order and
// remarks in emission order, so it reads as the optimizer's decision
// log.
func Explain(w io.Writer, remarks []Remark, fn string) {
	var order []string
	byFunc := make(map[string][]Remark)
	for _, r := range remarks {
		if fn != "" && fn != "all" && r.Func != fn {
			continue
		}
		if _, ok := byFunc[r.Func]; !ok {
			order = append(order, r.Func)
		}
		byFunc[r.Func] = append(byFunc[r.Func], r)
	}
	if len(order) == 0 {
		if fn != "" && fn != "all" {
			fmt.Fprintf(w, "no remarks for function %q (nothing attempted, or remarks disabled)\n", fn)
		} else {
			fmt.Fprintln(w, "no remarks recorded")
		}
		return
	}
	for i, name := range order {
		if i > 0 {
			fmt.Fprintln(w)
		}
		explainFunc(w, name, byFunc[name])
	}
}

func explainFunc(w io.Writer, name string, remarks []Remark) {
	rolled, missed := 0, 0
	for _, r := range remarks {
		switch r.Status {
		case StatusPassed:
			rolled++
		case StatusMissed:
			missed++
		}
	}
	fmt.Fprintf(w, "function %s: %d rolled, %d rejected\n", name, rolled, missed)
	block := ""
	for _, r := range remarks {
		if r.Block != block {
			block = r.Block
			if block != "" {
				fmt.Fprintf(w, "  block %s:\n", block)
			}
		}
		fmt.Fprintf(w, "    %s\n", explainLine(r))
	}
}

// explainLine renders one remark as a sentence.
func explainLine(r Remark) string {
	var sb strings.Builder
	switch r.Status {
	case StatusPassed:
		sb.WriteString("PASSED  ")
	case StatusMissed:
		sb.WriteString("MISSED  ")
	default:
		sb.WriteString("note    ")
	}
	switch r.Name {
	case "seed":
		fmt.Fprintf(&sb, "seed group (%s, %s) at %s", r.Kind, lanes(r.Lanes), r.Instr)
	case "align-node":
		fmt.Fprintf(&sb, "aligned %s node", r.Kind)
		if r.Instr != "" {
			fmt.Fprintf(&sb, " at %s", r.Instr)
		}
		if r.Detail != "" {
			fmt.Fprintf(&sb, " (%s)", r.Detail)
		}
	case "rolled":
		fmt.Fprintf(&sb, "rolled %s at %s: %d -> %d bytes (%+d)", lanes(r.Lanes), r.Instr, r.CostBefore, r.CostAfter, r.DeltaBytes)
	case "not-profitable":
		bound := ""
		if r.Detail == BoundDetail {
			bound = "≥"
		}
		fmt.Fprintf(&sb, "cost model rejected roll at %s: %d -> %s%d bytes (%s%+d)", r.Instr, r.CostBefore, bound, r.CostAfter, bound, r.DeltaBytes)
	case "rerolled":
		fmt.Fprintf(&sb, "rerolled loop by factor %d", r.Lanes)
	default:
		fmt.Fprintf(&sb, "%s", r.Name)
		if r.Instr != "" {
			fmt.Fprintf(&sb, " at %s", r.Instr)
		}
		if r.Detail != "" {
			fmt.Fprintf(&sb, ": %s", r.Detail)
		}
	}
	if r.Status == StatusMissed && r.Reason != "" {
		fmt.Fprintf(&sb, " [%s]", r.Reason)
	}
	return sb.String()
}

func lanes(n int) string {
	if n == 1 {
		return "1 lane"
	}
	return fmt.Sprintf("%d lanes", n)
}

// ReasonCount is one row of a rejected-by-reason breakdown.
type ReasonCount struct {
	// Reason is the stable rejection code of a missed remark.
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// CountByReason tallies missed remarks by Reason, sorted by descending
// count then reason, for the experiments' rejected-by-reason tables.
func CountByReason(remarks []Remark) []ReasonCount {
	m := make(map[string]int)
	for _, r := range remarks {
		if r.Status != StatusMissed {
			continue
		}
		reason := r.Reason
		if reason == "" {
			reason = r.Name
		}
		m[reason]++
	}
	out := make([]ReasonCount, 0, len(m))
	for reason, n := range m {
		out = append(out, ReasonCount{Reason: reason, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}
