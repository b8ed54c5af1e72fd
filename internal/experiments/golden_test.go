package experiments_test

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"rolag/internal/experiments"
	rl "rolag/internal/rolag"
)

// The fidelity golden: the exact reproduced paper numbers, as
// results/report.txt prints them (rounded there, exact here). The
// pipeline is deterministic, so any refactor that moves one of them
// fails TestRunTSVC, TestRunTable1 or TestRunAngha. A change that moves
// them on purpose rewrites the file with
//
//	go test ./internal/experiments -run 'TestRun(TSVC|Table1|Angha)$' -update
//
// and says why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

const goldenPath = "testdata/golden.json"

// goldenMean is one configuration's suite mean reduction (percent) and
// the number of kernels or functions it profitably changed.
type goldenMean struct {
	Mean     float64 `json:"mean"`
	Affected int     `json:"affected"`
}

// goldenTSVC pins Fig. 17, Fig. 18, Fig. 19 and §V.D.
type goldenTSVC struct {
	Kernels    int            `json:"kernels"`
	LLVM       goldenMean     `json:"llvm"`
	RoLAG      goldenMean     `json:"rolag"`
	Oracle     goldenMean     `json:"oracle"`
	NoSpecial  goldenMean     `json:"no_special"`
	Flatten    goldenMean     `json:"flatten"`
	Extensions goldenMean     `json:"extensions"`
	Fig19Nodes map[string]int `json:"fig19_nodes"`
	RelPerf    float64        `json:"rel_perf"`
}

// goldenTable1Row pins one Table I program in bytes: its size without
// RoLAG, the bytes RoLAG saved, and the loops it rolled.
type goldenTable1Row struct {
	Program   string `json:"program"`
	SizeBytes int    `json:"size_bytes"`
	RedBytes  int    `json:"red_bytes"`
	Loops     int    `json:"loops"`
}

// goldenAngha pins Fig. 15 and Fig. 16.
type goldenAngha struct {
	Functions   int            `json:"functions"`
	Affected    int            `json:"affected"`
	Mean        float64        `json:"mean"`
	Best        float64        `json:"best"`
	Regressions int            `json:"regressions"`
	Fig16Nodes  map[string]int `json:"fig16_nodes"`
}

// nodeCounts names every node kind, zeros included, as the report does.
func nodeCounts(m map[rl.NodeKind]int) map[string]int {
	out := make(map[string]int)
	for k := rl.KindInvalid + 1; k <= rl.KindJoint; k++ {
		out[k.String()] = m[k]
	}
	return out
}

func tsvcGolden(s *experiments.TSVCSummary) goldenTSVC {
	g := goldenTSVC{
		Kernels:    len(s.Results),
		LLVM:       goldenMean{s.MeanLLVM, s.AffectedLLVM},
		RoLAG:      goldenMean{s.MeanRoLAG, s.AffectedRoLAG},
		Oracle:     goldenMean{Mean: s.MeanOracle},
		NoSpecial:  goldenMean{s.MeanNoSpecial, s.AffectedNoSpecial},
		Flatten:    goldenMean{Mean: s.MeanFlat},
		Extensions: goldenMean{s.MeanExtensions, s.AffectedExtensions},
		Fig19Nodes: nodeCounts(s.NodeCounts),
		RelPerf:    s.RelPerf,
	}
	for _, r := range s.Results {
		if r.SizeOracle < r.SizeBase {
			g.Oracle.Affected++
		}
		if r.RoLAGRolled > 0 && r.SizeFlat < r.SizeBase {
			g.Flatten.Affected++
		}
	}
	return g
}

func table1Golden(rows []experiments.Table1Row) []goldenTable1Row {
	out := make([]goldenTable1Row, len(rows))
	for i, r := range rows {
		// SizeKB and ReductionKB are byte counts over 1024: exact.
		out[i] = goldenTable1Row{r.Name, int(r.SizeKB * 1024), int(r.ReductionKB * 1024), r.RolledLoops}
	}
	return out
}

func anghaGolden(s *experiments.AnghaSummary) goldenAngha {
	return goldenAngha{
		Functions:   s.Total,
		Affected:    len(s.Affected),
		Mean:        s.MeanReduction,
		Best:        s.BestReduction,
		Regressions: s.Regressions,
		Fig16Nodes:  nodeCounts(s.NodeCounts),
	}
}

// checkGolden compares got with the named section of the golden file,
// or rewrites that section under -update.
func checkGolden[T any](t *testing.T, section string, got T) {
	t.Helper()
	sections := map[string]json.RawMessage{}
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &sections); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	case !*update || !os.IsNotExist(err):
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		sections[section] = gotJSON
		out, err := json.MarshalIndent(sections, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want T
	if err := json.Unmarshal(sections[section], &want); err != nil {
		t.Fatalf("%s section %q: %v", goldenPath, section, err)
	}
	if !reflect.DeepEqual(got, want) {
		wantJSON, _ := json.Marshal(want)
		t.Errorf("%s numbers moved from %s (rerun with -update only if the change is intended):\ngot:  %s\nwant: %s",
			section, goldenPath, gotJSON, wantJSON)
	}
}
