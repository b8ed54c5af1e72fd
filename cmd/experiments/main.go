// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes text reports plus CSV data files.
//
// Usage:
//
//	experiments [-out results] [-run all|angha|tsvc|table1|perf|calib] [-n 2000] [-serial]
//
// The experiment ids map to the paper as follows: "angha" produces
// Fig. 15, Fig. 16 and a rejected-by-reason table built from the
// optimizer's remarks, "table1" produces Table I, "tsvc" produces
// Fig. 17, Fig. 18 and Fig. 19, and "perf" produces the §V.D overhead
// summary.
//
// The corpus experiments run through the shared concurrent engine
// (internal/service) by default; -serial restores the one-at-a-time
// facade driver, and -daemon http://host:port offloads the angha corpus
// to a running rolagd through the retrying HTTP client.
//
// "calib" compiles the corpus straight-line and rolled through the
// x86-64 backend, compares the measured object bytes against the
// binary cost model, and writes CALIB_costmodel.json; with -check it
// fails unless the model stays inside its error gates (MAPE and
// rolled-vs-straight sign agreement), which `make ci` relies on to
// catch cost-model drift.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"rolag/internal/backend/calib"
	"rolag/internal/experiments"
	"rolag/internal/service"
)

func main() {
	out := flag.String("out", "results", "directory for CSV output (empty = none)")
	run := flag.String("run", "all", "comma-separated experiments: angha,tsvc,table1,perf,calib or all")
	n := flag.Int("n", 2000, "AnghaBench corpus size")
	seed := flag.Int64("seed", 0, "AnghaBench corpus seed (0 = default)")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	serial := flag.Bool("serial", false, "use the serial reference driver instead of the engine")
	daemon := flag.String("daemon", "", "base URL of a running rolagd; the angha corpus compiles remotely through it")
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

	// One engine serves every corpus experiment, so identical
	// compilations (e.g. the tsvc and perf passes) hit the cache.
	var engine *service.Engine
	if !*serial {
		engine = service.New(service.Config{Workers: *workers})
		defer engine.Close(context.Background())
	}

	if all || want["angha"] {
		fmt.Println("running AnghaBench experiment (Fig. 15, Fig. 16)...")
		s, err := experiments.RunAngha(experiments.AnghaConfig{N: *n, Seed: *seed, Engine: engine, Serial: *serial, Daemon: *daemon})
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
		cfg.Engine = engine
		cfg.Serial = *serial
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
		c, err := calib.Run(calib.Config{N: *calibN, Seed: *seed})
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
