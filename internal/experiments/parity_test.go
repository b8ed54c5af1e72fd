package experiments

import (
	"reflect"
	"testing"

	"rolag"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// TestAnghaParallelMatchesSerial checks the parallel corpus run is
// result-for-result identical to the same builds made one at a time.
func TestAnghaParallelMatchesSerial(t *testing.T) {
	funcs := angha.Generate(150, 7)
	builds := make([][3]anghaBuild, len(funcs))
	for i, fn := range funcs {
		for c, bcfg := range anghaConfigs(fn.Name) {
			res, err := rolag.Build(fn.Src, bcfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", fn.Name, bcfg.Opt, err)
			}
			builds[i][c] = newAnghaBuild(res)
		}
	}
	serial := aggregateAngha(funcs, builds)
	parallel, err := RunAngha(AnghaConfig{N: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel summary diverges from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestTSVCParallelMatchesSerial does the same for the TSVC methodology,
// including the interpreted §V.D step counts.
func TestTSVCParallelMatchesSerial(t *testing.T) {
	cfg := DefaultTSVCConfig()
	for i, kr := range tsvc.Kernels() {
		if i%8 == 0 { // a cross-section of the suite, kept small for -race
			cfg.Kernels = append(cfg.Kernels, kr.Name)
		}
	}
	cfg.MeasurePerf = true
	cfg.WithExtensions = true

	kernels, cfgs, variants := tsvcPlan(&cfg)
	if len(kernels) != len(cfg.Kernels) {
		t.Fatalf("selected %d kernels for %d names", len(kernels), len(cfg.Kernels))
	}
	builds := make([][numVariants]tsvcBuild, len(kernels))
	for i, kr := range kernels {
		for v := 0; v < variants; v++ {
			res, err := rolag.Build(kr.Src, cfgs[i][v])
			if err != nil {
				t.Fatalf("%s (%s): %v", kr.Name, variantNames[v], err)
			}
			builds[i][v] = newTSVCBuild(&cfg, v, res)
		}
	}
	serial, err := aggregateTSVC(&cfg, kernels, builds)
	if err != nil {
		t.Fatal(err)
	}
	if serial.RelPerf == 0 {
		t.Fatal("no kernel of the cross-section was interpreted for §V.D")
	}
	parallel, err := RunTSVC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel summary diverges from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
