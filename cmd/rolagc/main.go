// Command rolagc is the compiler driver: it compiles a mini-C source
// file to the project's SSA IR, optionally unrolls its loops, applies a
// loop-(re)rolling technique and reports code sizes.
//
// Usage:
//
//	rolagc [-opt none|llvm|rolag] [-unroll N] [-emit ir|asm|bytes|none]
//	       [-stats] [-ir] [-remarks json|yaml] [-explain func] file.c
//
// With no file argument, source is read from standard input. With -ir
// the input is the project's textual IR instead of mini-C.
//
// -emit selects what lands on stdout: "ir" (default) prints the final
// IR, "asm" the x86-64 assembly emitted by internal/backend, "bytes" a
// per-function hex dump of the encoded machine code, and "none"
// nothing. -emit=true and -emit=false keep their historical boolean
// meaning (ir / none). With -emit asm|bytes or -stats, a
// "text: N bytes, rodata: N bytes" line with measured (not estimated)
// sizes is printed to standard error.
//
// Remarks: -remarks json (or yaml) records one remark per rolling
// decision — seed grouping, per-node alignment outcomes, scheduling
// rejections, cost-model verdicts, reroll attempts — and prints the
// deterministic stream to standard output. -explain <func> (or
// -explain all) renders the same remarks as a human-readable report
// explaining why each candidate in that function was or was not
// rolled. Both default -emit to false unless it was set explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/obs"
	rl "rolag/internal/rolag"
)

// emitFlag is the -emit mode: ir, asm, bytes or none. The historical
// boolean spellings -emit=true and -emit=false still parse (ir / none).
type emitFlag struct{ mode string }

func (e *emitFlag) String() string { return e.mode }

func (e *emitFlag) Set(v string) error {
	switch v {
	case "true":
		e.mode = "ir"
	case "false":
		e.mode = "none"
	case "ir", "asm", "bytes", "none":
		e.mode = v
	default:
		return fmt.Errorf("want ir, asm, bytes or none")
	}
	return nil
}

func main() {
	opt := flag.String("opt", "rolag", "optimization: none, llvm (rerolling baseline) or rolag")
	unroll := flag.Int("unroll", 0, "force-unroll inner loops by this factor first (0 = off)")
	emit := &emitFlag{mode: "ir"}
	flag.Var(emit, "emit", "print the final ir, its asm, its machine-code bytes, or none")
	stats := flag.Bool("stats", false, "print RoLAG statistics")
	noSpecial := flag.Bool("no-special-nodes", false, "disable RoLAG's special nodes (Fig. 19 ablation)")
	alwaysRoll := flag.Bool("always-roll", false, "skip the profitability analysis")
	fastMath := flag.Bool("fast-math", false, "allow floating-point reassociation (reductions)")
	irInput := flag.Bool("ir", false, "input is textual IR rather than mini-C")
	flatten := flag.Bool("flatten", false, "flatten rerolled loop nests after RoLAG (§V.C cleanup)")
	remarks := flag.String("remarks", "", "print optimization remarks to stdout: json or yaml")
	explain := flag.String("explain", "", "print a human-readable remark report for this function (or \"all\")")
	flag.Parse()

	if *remarks != "" && *remarks != "json" && *remarks != "yaml" {
		fmt.Fprintf(os.Stderr, "rolagc: unknown -remarks format %q (want json or yaml)\n", *remarks)
		os.Exit(2)
	}
	// Remark output replaces the IR on stdout unless the user asked for
	// both explicitly.
	if *remarks != "" || *explain != "" {
		emitSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "emit" {
				emitSet = true
			}
		})
		if !emitSet {
			emit.mode = "none"
		}
	}

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: rolagc [flags] [file.c]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolagc: %v\n", err)
		os.Exit(1)
	}

	cfg := rolag.Config{Name: "main", IRInput: *irInput, Unroll: *unroll, Flatten: *flatten,
		Remarks: *remarks != "" || *explain != ""}
	switch *opt {
	case "none":
		cfg.Opt = rolag.OptNone
	case "llvm":
		cfg.Opt = rolag.OptLLVMReroll
	case "rolag":
		cfg.Opt = rolag.OptRoLAG
		opts := rolag.DefaultOptions()
		if *noSpecial {
			opts = rolag.NoSpecialNodes()
		}
		opts.AlwaysRoll = *alwaysRoll
		opts.FastMath = *fastMath
		cfg.Options = opts
	default:
		fmt.Fprintf(os.Stderr, "rolagc: unknown -opt %q\n", *opt)
		os.Exit(2)
	}

	res, err := rolag.Build(string(src), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolagc: %v\n", err)
		os.Exit(1)
	}
	// Lower through the assembly backend when the output mode or the
	// statistics need measured bytes.
	var lowered *backend.Result
	if emit.mode == "asm" || emit.mode == "bytes" || *stats {
		lowered, err = backend.Compile(res.Module, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rolagc: %v\n", err)
			os.Exit(1)
		}
	}
	switch emit.mode {
	case "ir":
		fmt.Print(res.Module)
	case "asm":
		fmt.Print(lowered.Asm())
	case "bytes":
		for _, name := range lowered.Code.FuncOrder {
			fc := lowered.Code.Funcs[name]
			fmt.Printf("%s: %d bytes\n", name, fc.Size())
			for off := 0; off < len(fc.Bytes); off += 16 {
				end := off + 16
				if end > len(fc.Bytes) {
					end = len(fc.Bytes)
				}
				fmt.Printf("  %04x: % x\n", off, fc.Bytes[off:end])
			}
		}
	}
	switch *remarks {
	case "json":
		if err := obs.WriteJSON(os.Stdout, res.Remarks); err != nil {
			fmt.Fprintf(os.Stderr, "rolagc: %v\n", err)
			os.Exit(1)
		}
	case "yaml":
		if err := obs.WriteYAML(os.Stdout, res.Remarks); err != nil {
			fmt.Fprintf(os.Stderr, "rolagc: %v\n", err)
			os.Exit(1)
		}
	}
	if *explain != "" {
		obs.Explain(os.Stdout, res.Remarks, *explain)
	}
	fmt.Fprintf(os.Stderr, "size: %d -> %d bytes (%+.1f%%)\n",
		res.BinaryBefore, res.BinaryAfter, -res.Reduction())
	if lowered != nil {
		fmt.Fprintf(os.Stderr, "text: %d bytes, rodata: %d bytes\n",
			lowered.Code.Text, lowered.Code.Rodata)
		if *stats {
			for _, name := range lowered.Code.FuncOrder {
				fmt.Fprintf(os.Stderr, "  text %-16s %d bytes\n", name, lowered.Code.FuncSize(name))
			}
		}
	}
	if res.Stats != nil && *stats {
		fmt.Fprintf(os.Stderr, "rolag: blocks=%d seeds=%d graphs=%d rolled=%d scheduleFailed=%d notProfitable=%d\n",
			res.Stats.BlocksScanned, res.Stats.SeedGroups, res.Stats.GraphsBuilt,
			res.Stats.LoopsRolled, res.Stats.ScheduleFailed, res.Stats.NotProfitable)
		kinds := make([]rl.NodeKind, 0, len(res.Stats.NodeCounts))
		for k := range res.Stats.NodeCounts {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(os.Stderr, "  node %-11s %d\n", k, res.Stats.NodeCounts[k])
		}
	}
	if cfg.Opt == rolag.OptLLVMReroll {
		fmt.Fprintf(os.Stderr, "llvm rerolling: %d loops rerolled\n", res.Rerolled)
	}
}
