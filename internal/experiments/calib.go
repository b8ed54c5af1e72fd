package experiments

// The calibration of the binary cost model against the assembly backend
// compiles a corpus of synthesized AnghaBench-like functions both
// straight-line (OptNone) and rolled (OptRoLAG), measures the real
// encoded object size of each variant, and compares it to the cost
// model's estimate. The two headline statistics are
//
//   - MAPE: the mean absolute percentage error of the estimated object
//     size against the measured one, over every compiled variant; and
//   - sign agreement: how often the model's predicted direction of the
//     rolled-minus-straight delta matches the measured direction.
//
// Sign agreement is the number that matters for correctness of the
// profitability decision — a model can be biased by a few bytes
// everywhere and still make every roll/don't-roll call correctly, but
// a sign flip means RoLAG shipped a size regression it believed was a
// win. MAPE bounds the bias itself so estimates stay meaningful as
// absolute numbers (reports, Fig. 15 reductions).

import (
	"fmt"
	"sort"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/costmodel"
	"rolag/internal/workloads/angha"
)

// CalibSample is one corpus function's calibration record.
type CalibSample struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	// MeasuredNone/MeasuredRoLAG are the encoder's object sizes
	// (.text plus .rodata) for the straight-line and rolled builds.
	MeasuredNone  int64 `json:"measuredNone"`
	MeasuredRoLAG int64 `json:"measuredRolag"`
	// EstimatedNone/EstimatedRoLAG are the binary cost model's
	// estimates for the same two modules.
	EstimatedNone  int `json:"estimatedNone"`
	EstimatedRoLAG int `json:"estimatedRolag"`
}

// MeasuredDelta is the real byte effect of rolling (negative = smaller).
func (s *CalibSample) MeasuredDelta() int64 { return s.MeasuredRoLAG - s.MeasuredNone }

// EstimatedDelta is the modeled byte effect of rolling.
func (s *CalibSample) EstimatedDelta() int { return s.EstimatedRoLAG - s.EstimatedNone }

// err is the relative error of one variant's estimate.
func relErr(est int, meas int64) float64 {
	if meas == 0 {
		return 0
	}
	d := float64(est) - float64(meas)
	if d < 0 {
		d = -d
	}
	return d / float64(meas)
}

// CalibReport is the aggregated calibration outcome, serialized to
// results/CALIB_costmodel.json.
type CalibReport struct {
	// Functions is the corpus size (each contributes two variants).
	Functions int `json:"functions"`
	// Seed reproduces the corpus.
	Seed int64 `json:"seed"`
	// MAPE is the mean absolute percentage error of the model's object
	// size against the encoder's, over all 2·Functions variants.
	MAPE float64 `json:"mape"`
	// SignAgreement is the fraction of functions where the model
	// predicts the correct direction of the rolled-vs-straight delta
	// (sign in {-1, 0, +1}; both-zero counts as agreement).
	SignAgreement float64 `json:"signAgreement"`
	// Changed counts functions whose measured size actually moved.
	Changed int `json:"changed"`
	// Disagreements counts sign mismatches (the gate's complement).
	Disagreements int `json:"disagreements"`
	// MeanMeasuredDelta / MeanEstimatedDelta average the per-function
	// deltas over changed functions: the real and modeled mean byte
	// savings of rolling on this corpus.
	MeanMeasuredDelta  float64 `json:"meanMeasuredDelta"`
	MeanEstimatedDelta float64 `json:"meanEstimatedDelta"`
	// FamilyMAPE breaks the error down by generator family, the first
	// place to look when the gate trips: a drifting per-instruction
	// estimate shows up as one family going bad, not uniform noise.
	FamilyMAPE map[string]float64 `json:"familyMape"`
	// Worst lists the samples with the largest relative error
	// (descending), for re-tuning per-instruction estimates.
	Worst []CalibSample `json:"worst"`
}

// Gate thresholds: the committed calibration must stay at least this
// good, or `experiments -run calib -check` fails the build.
const (
	// calibMaxMAPE bounds the mean absolute percentage error.
	calibMaxMAPE = 0.15
	// calibMinSignAgreement bounds the direction-prediction accuracy.
	calibMinSignAgreement = 0.95
	// calibMinFunctions keeps the corpus large enough to mean something.
	calibMinFunctions = 200
)

// Check applies the regression gate to a report (fresh or committed).
func (r *CalibReport) Check() error {
	if r.Functions < calibMinFunctions {
		return fmt.Errorf("calib: only %d functions, want >= %d", r.Functions, calibMinFunctions)
	}
	if r.MAPE > calibMaxMAPE {
		return fmt.Errorf("calib: MAPE %.4f exceeds %.2f", r.MAPE, calibMaxMAPE)
	}
	if r.SignAgreement < calibMinSignAgreement {
		return fmt.Errorf("calib: sign agreement %.4f below %.2f", r.SignAgreement, calibMinSignAgreement)
	}
	return nil
}

// CalibConfig tunes a calibration run.
type CalibConfig struct {
	// N is the corpus size (default 400).
	N int
	// Seed drives the corpus generator (default 20220402, the same
	// default seed the angha experiment uses).
	Seed int64
	// Worst bounds the worst-offender list in the report (default 10).
	Worst int
}

// RunCalib compiles the corpus twice per function, the functions side by
// side, and aggregates the calibration report. The work is
// deterministic for a given CalibConfig.
func RunCalib(cfg CalibConfig) (*CalibReport, error) {
	if cfg.N <= 0 {
		cfg.N = 400
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20220402
	}
	if cfg.Worst <= 0 {
		cfg.Worst = 10
	}
	funcs := angha.Generate(cfg.N, cfg.Seed)
	model := costmodel.Binary()
	samples, err := parallelMap(len(funcs), func(i int) (CalibSample, error) {
		fn := funcs[i]
		s := CalibSample{Name: fn.Name, Family: fn.Family}
		for _, opt := range []rolag.Optimization{rolag.OptNone, rolag.OptRoLAG} {
			c := rolag.Config{Name: fn.Name, Opt: opt}
			if opt == rolag.OptRoLAG {
				c.Options = rolag.DefaultOptions()
			}
			res, err := rolag.Build(fn.Src, c)
			if err != nil {
				return s, fmt.Errorf("calib: %s opt=%v: %w", fn.Name, opt, err)
			}
			br, err := backend.Compile(res.Module, nil)
			if err != nil {
				return s, fmt.Errorf("calib: %s opt=%v: lower: %w", fn.Name, opt, err)
			}
			measured := br.Code.Text + br.Code.Rodata
			estimated := model.Module(res.Module)
			if opt == rolag.OptNone {
				s.MeasuredNone, s.EstimatedNone = measured, estimated
			} else {
				s.MeasuredRoLAG, s.EstimatedRoLAG = measured, estimated
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return aggregateCalib(samples, cfg), nil
}

func sign64(v int64) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func aggregateCalib(samples []CalibSample, cfg CalibConfig) *CalibReport {
	r := &CalibReport{
		Functions:  len(samples),
		Seed:       cfg.Seed,
		FamilyMAPE: make(map[string]float64),
	}
	famN := make(map[string]int)
	var errSum float64
	var measSum, estSum float64
	type scored struct {
		s   CalibSample
		err float64
	}
	var ranked []scored
	for _, s := range samples {
		e := relErr(s.EstimatedNone, s.MeasuredNone) + relErr(s.EstimatedRoLAG, s.MeasuredRoLAG)
		errSum += e
		r.FamilyMAPE[s.Family] += e
		famN[s.Family] += 2
		ranked = append(ranked, scored{s, e / 2})

		md, ed := s.MeasuredDelta(), s.EstimatedDelta()
		if md != 0 {
			r.Changed++
			r.MeanMeasuredDelta += float64(md)
			r.MeanEstimatedDelta += float64(ed)
		}
		if sign64(md) != sign64(int64(ed)) {
			r.Disagreements++
		}
		measSum += float64(s.MeasuredNone + s.MeasuredRoLAG)
		estSum += float64(s.EstimatedNone + s.EstimatedRoLAG)
	}
	if n := len(samples); n > 0 {
		r.MAPE = errSum / float64(2*n)
		r.SignAgreement = float64(n-r.Disagreements) / float64(n)
	}
	if r.Changed > 0 {
		r.MeanMeasuredDelta /= float64(r.Changed)
		r.MeanEstimatedDelta /= float64(r.Changed)
	}
	for fam, sum := range r.FamilyMAPE {
		r.FamilyMAPE[fam] = sum / float64(famN[fam])
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].err != ranked[j].err {
			return ranked[i].err > ranked[j].err
		}
		return ranked[i].s.Name < ranked[j].s.Name
	})
	for i := 0; i < len(ranked) && i < cfg.Worst; i++ {
		r.Worst = append(r.Worst, ranked[i].s)
	}
	return r
}
