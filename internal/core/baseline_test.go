package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNewBaselineValidation(t *testing.T) {
	if _, err := Build(NewSpec(BaselineTask(0, 1), WithScheme(SchemeEMF))); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := Build(NewSpec(BaselineTask(0.5, 0.5), WithScheme(SchemeEMF))); err == nil {
		t.Fatal("alpha >= beta accepted")
	}
	if _, err := Build(NewSpec(BaselineTask(0.9, 0.1), WithScheme(SchemeEMF))); err == nil {
		t.Fatal("alpha > beta accepted")
	}
}

func TestBaselineCollectShape(t *testing.T) {
	b := buildAs[*Baseline](t, BaselineTask(0.125, 0.875), WithScheme(SchemeEMF))
	vals, _ := uniformValues(1, 4000, -1, 1)
	col, err := b.Collect(rng.New(2), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups[0]) != 4000 || len(col.Groups[1]) != 4000 {
		t.Fatalf("collection sizes %d/%d", len(col.Groups[0]), len(col.Groups[1]))
	}
}

func TestBaselineDefends(t *testing.T) {
	vals, trueMean := uniformValues(3, 30000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	b := buildAs[*Baseline](t, BaselineTask(0.125, 0.875), WithScheme(SchemeEMFStar))
	est, err := b.Run(rng.New(4), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Ostrich on the β reports alone.
	col, err := b.Collect(rng.New(4), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ostrich := stats.Mean(col.Groups[1])
	if math.Abs(est.Mean-trueMean) >= math.Abs(ostrich-trueMean) {
		t.Fatalf("baseline (%v) should beat Ostrich (%v) vs truth %v", est.Mean, ostrich, trueMean)
	}
	if !est.PoisonedRight {
		t.Fatal("side probe failed")
	}
}

// The §V motivation: attackers who behave honestly on ε_α hide from the
// probe, so the gamed baseline reconstructs a much smaller γ̂ than the
// honest-threat baseline.
func TestBaselineGamedProbeDegrades(t *testing.T) {
	vals, _ := uniformValues(5, 30000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	b := buildAs[*Baseline](t, BaselineTask(0.125, 0.875), WithScheme(SchemeEMF))
	honest, err := b.Collect(rng.New(6), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	gamed, err := b.GamedCollect(rng.New(6), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	estHonest, err := b.Estimate(context.Background(), honest)
	if err != nil {
		t.Fatal(err)
	}
	estGamed, err := b.Estimate(context.Background(), gamed)
	if err != nil {
		t.Fatal(err)
	}
	if estGamed.Gamma >= estHonest.Gamma {
		t.Fatalf("gamed γ̂ (%v) should fall below honest γ̂ (%v)", estGamed.Gamma, estHonest.Gamma)
	}
	if estGamed.Gamma > 0.12 {
		t.Fatalf("gamed γ̂ = %v, expected near zero (attack hidden)", estGamed.Gamma)
	}
}

func TestBaselineEstimateValidation(t *testing.T) {
	b := buildAs[*Baseline](t, BaselineTask(0.125, 0.875), WithScheme(SchemeEMF))
	if _, err := b.Estimate(context.Background(), nil); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := b.Estimate(context.Background(), &Collection{Groups: [][]float64{{1}, nil}}); err == nil {
		t.Fatal("empty beta accepted")
	}
}

func TestBaselineCEMFScheme(t *testing.T) {
	vals, trueMean := uniformValues(7, 20000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighQuarter, attack.DistUniform)
	b := buildAs[*Baseline](t, BaselineTask(0.125, 0.875), WithScheme(SchemeCEMFStar))
	est, err := b.Run(rng.New(8), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.25 {
		t.Fatalf("CEMF* baseline estimate %v vs truth %v", est.Mean, trueMean)
	}
}
