// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes text reports plus CSV data files.
//
// Usage:
//
//	experiments [-out results] [-run all|angha|tsvc|table1|perf|calib] [-n 2000] [-seed 0] [-calibn 400] [-check]
//
// The experiment ids map to the paper as follows: "angha" produces
// Fig. 15, Fig. 16 and a rejected-by-reason table built from the
// optimizer's remarks, "table1" produces Table I, "tsvc" produces
// Fig. 17, Fig. 18 and Fig. 19, and "perf" produces the §V.D overhead
// summary.
//
// Each experiment compiles its inputs side by side on GOMAXPROCS
// goroutines, every one through the fail-hard rolag.Build pipeline, so
// a compile error stops the run instead of moving a number.
//
// "calib" compiles the corpus straight-line and rolled through the
// x86-64 backend, compares the measured object bytes against the
// binary cost model, and writes CALIB_costmodel.json; with -check it
// fails unless the model stays inside its error gates (MAPE and
// rolled-vs-straight sign agreement), which `make ci` relies on to
// catch cost-model drift.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rolag/internal/experiments"
)

func main() {
	out := flag.String("out", "results", "directory for CSV output (empty = none)")
	run := flag.String("run", "all", "comma-separated experiments: angha,tsvc,table1,perf,calib or all")
	n := flag.Int("n", 2000, "AnghaBench corpus size")
	seed := flag.Int64("seed", 0, "AnghaBench corpus seed (0 = default)")
	calibN := flag.Int("calibn", 400, "corpus size for the cost-model calibration")
	check := flag.Bool("check", false, "fail if the calibration misses its regression gate (MAPE, sign agreement)")
	flag.Parse()

	want := make(map[string]bool)
	for _, s := range strings.Split(*run, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]
	rep := &experiments.Report{Dir: *out}

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", what, err)
		os.Exit(1)
	}

	if all || want["angha"] {
		fmt.Println("running AnghaBench experiment (Fig. 15, Fig. 16)...")
		s, err := experiments.RunAngha(experiments.AnghaConfig{N: *n, Seed: *seed})
		if err != nil {
			fail("angha", err)
		}
		if err := rep.Fig15(s); err != nil {
			fail("fig15", err)
		}
		if err := rep.Fig16(s); err != nil {
			fail("fig16", err)
		}
		if err := rep.Rejections(s); err != nil {
			fail("rejections", err)
		}
	}
	if all || want["table1"] {
		fmt.Println("running MiBench/SPEC experiment (Table I)...")
		rows, err := experiments.RunTable1()
		if err != nil {
			fail("table1", err)
		}
		if err := rep.Table1(rows); err != nil {
			fail("table1 report", err)
		}
	}
	if all || want["tsvc"] || want["perf"] {
		fmt.Println("running TSVC experiment (Fig. 17, Fig. 18, Fig. 19, §V.D)...")
		cfg := experiments.DefaultTSVCConfig()
		cfg.MeasurePerf = all || want["perf"]
		cfg.WithExtensions = true
		s, err := experiments.RunTSVC(cfg)
		if err != nil {
			fail("tsvc", err)
		}
		if all || want["tsvc"] {
			if err := rep.Fig17(s); err != nil {
				fail("fig17", err)
			}
			if err := rep.Fig18(s); err != nil {
				fail("fig18", err)
			}
			if err := rep.Fig19(s); err != nil {
				fail("fig19", err)
			}
		}
		if cfg.MeasurePerf {
			if err := rep.Perf(s); err != nil {
				fail("perf", err)
			}
		}
	}
	if all || want["calib"] {
		fmt.Println("calibrating the binary cost model against the assembly backend...")
		c, err := experiments.RunCalib(experiments.CalibConfig{N: *calibN, Seed: *seed})
		if err != nil {
			fail("calib", err)
		}
		if err := rep.Calib(c); err != nil {
			fail("calib report", err)
		}
		if *check {
			if err := c.Check(); err != nil {
				fail("calib gate", err)
			}
			fmt.Println("calibration gate passed")
		}
	}
	if *out != "" {
		fmt.Printf("\nCSV data written to %s/\n", *out)
	}
}
