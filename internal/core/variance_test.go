package core

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestVarianceEstimatorValidation(t *testing.T) {
	ve := buildAs[Runner](t, VarianceTask(), WithBudget(1, 0.25), WithScheme(SchemeEMF))
	if _, err := ve.Run(rng.New(1), []float64{1, 2}, nil, 0); err == nil {
		t.Fatal("too few users accepted")
	}
	if _, err := Build(NewSpec(VarianceTask(), WithBudget(0, 1), WithScheme(SchemeEMF))); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestVarianceEstimatorClean(t *testing.T) {
	vals, _ := uniformValues(1, 30000, -0.6, 0.6)
	trueVar := stats.Variance(vals)
	ve := buildAs[Runner](t, VarianceTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	est, err := ve.Run(rng.New(2), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Variance-trueVar) > 0.08 {
		t.Fatalf("variance %v, want ~%v", est.Variance, trueVar)
	}
	if est.Variance < 0 || est.SecondMoment < 0 || est.SecondMoment > 1 {
		t.Fatalf("invalid moments: %+v", est)
	}
}

func TestVarianceEstimatorUnderAttack(t *testing.T) {
	vals, _ := uniformValues(3, 30000, -0.6, 0.6)
	trueVar := stats.Variance(vals)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	ve := buildAs[Estimator](t, VarianceTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	est, err := ve.(Runner).Run(rng.New(4), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// The attack drags both moments; the defense must keep the variance
	// in the right ballpark where the naive estimate explodes.
	if math.Abs(est.Variance-trueVar) > 0.15 {
		t.Fatalf("defended variance %v, want ~%v", est.Variance, trueVar)
	}
	// Both underlying half estimates (mean, then second moment) are
	// present in the group diagnostics.
	if h := len(ve.Groups()); len(est.GroupMeans) != h || len(est.Weights) != h {
		t.Fatal("underlying estimates missing")
	}
}

func TestDAPAutoOPrime(t *testing.T) {
	vals, trueMean := uniformValues(5, 15000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithAutoOPrime(0), WithScheme(SchemeEMFStar))
	est, err := d.Run(rng.New(6), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2: with a right-side attack, O′ must sit at or below the
	// true mean so no poison values escape the analysis.
	if est.OPrime > trueMean+0.05 {
		t.Fatalf("O′ = %v above true mean %v", est.OPrime, trueMean)
	}
	if !est.PoisonedRight {
		t.Fatal("side probe failed under AutoOPrime")
	}
	if math.Abs(est.Mean-trueMean) > 0.2 {
		t.Fatalf("AutoOPrime estimate %v vs truth %v", est.Mean, trueMean)
	}
}

func TestDAPFixedOPrimeRecorded(t *testing.T) {
	vals, _ := uniformValues(7, 9000, -0.5, 0.5)
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithOPrime(0.1), WithScheme(SchemeEMF))
	est, err := d.Run(rng.New(8), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.OPrime != 0.1 {
		t.Fatalf("recorded O′ = %v, want 0.1", est.OPrime)
	}
}
