package experiments

import (
	"encoding/json"
	"testing"
)

// TestRunCalibSmall runs a reduced calibration corpus and sanity-checks
// the aggregates.
func TestRunCalibSmall(t *testing.T) {
	r, err := RunCalib(CalibConfig{N: 60, Worst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Functions != 60 {
		t.Errorf("Functions = %d, want 60", r.Functions)
	}
	if r.MAPE <= 0 || r.MAPE >= 1 {
		t.Errorf("MAPE = %v, want a small positive fraction", r.MAPE)
	}
	if r.SignAgreement <= 0.5 || r.SignAgreement > 1 {
		t.Errorf("SignAgreement = %v out of range", r.SignAgreement)
	}
	if r.Changed == 0 {
		t.Error("no function changed under RoLAG; corpus is not exercising rolling")
	}
	if len(r.Worst) != 5 {
		t.Errorf("Worst has %d entries, want 5", len(r.Worst))
	}
	if len(r.FamilyMAPE) == 0 {
		t.Error("no family breakdown")
	}

	// Determinism: the whole pipeline from generator to encoder must
	// reproduce the report bit-for-bit.
	r2, err := RunCalib(CalibConfig{N: 60, Worst: 5})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Errorf("calibration is not deterministic:\n%s\n%s", b1, b2)
	}
}

// TestCalibCheckGate exercises the regression gate on synthetic reports.
func TestCalibCheckGate(t *testing.T) {
	good := &CalibReport{Functions: calibMinFunctions, MAPE: calibMaxMAPE, SignAgreement: calibMinSignAgreement}
	if err := good.Check(); err != nil {
		t.Errorf("boundary report rejected: %v", err)
	}
	cases := []*CalibReport{
		{Functions: calibMinFunctions - 1, MAPE: 0.01, SignAgreement: 1},
		{Functions: calibMinFunctions, MAPE: calibMaxMAPE + 0.01, SignAgreement: 1},
		{Functions: calibMinFunctions, MAPE: 0.01, SignAgreement: calibMinSignAgreement - 0.01},
	}
	for i, c := range cases {
		if err := c.Check(); err == nil {
			t.Errorf("case %d: bad report passed the gate", i)
		}
	}
}
