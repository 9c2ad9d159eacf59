package dap

// Cross-package integration tests: full protocol rounds against every
// threat model through the public facade, plus protocol-level validation
// of the paper's theorems (Theorem 1 equivalence, the §V security
// argument, the §V-D extensions).

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

func integrationValues(seed uint64, n int) ([]float64, float64) {
	r := rng.New(seed)
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = stats.Clamp(rng.Normal(r, -0.3, 0.25), -1, 1)
		sum += vals[i]
	}
	return vals, sum / float64(n)
}

// Every threat model, one protocol, one assertion: DAP stays closer to
// the truth than the undefended mean.
func TestDAPAgainstAllThreatModels(t *testing.T) {
	vals, trueMean := integrationValues(1, 15000)
	threats := []struct {
		name  string
		adv   Adversary
		gamma float64
	}{
		{"BBA uniform [C/2,C]", NewBBA(RangeHighHalf, DistUniform), 0.25},
		{"BBA gaussian [3C/4,C]", NewBBA(RangeHighQuarter, DistGaussian), 0.25},
		{"BBA beta61 [O,C]", NewBBA(RangeFull, DistBeta61), 0.25},
		{"GBA two-sided", &GBA{FracLeft: 0.2, LeftRange: RangeHighHalf, RightRange: RangeHighHalf, Dist: DistUniform}, 0.25},
		{"Evasion a=0.1", &Evasion{A: 0.1}, 0.25},
	}
	for _, th := range threats {
		t.Run(th.name, func(t *testing.T) {
			d := buildAs[Runner](t, Mean(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
			est, err := d.Run(rng.New(2), vals, th.adv, th.gamma)
			if err != nil {
				t.Fatal(err)
			}
			reports, err := CollectPM(rng.New(2), vals, 1, th.adv, th.gamma, 0)
			if err != nil {
				t.Fatal(err)
			}
			naive := stats.Clamp(Ostrich(reports), -1, 1)
			if math.Abs(est.Mean-trueMean) >= math.Abs(naive-trueMean) {
				t.Fatalf("DAP %v vs naive %v vs truth %v", est.Mean, naive, trueMean)
			}
		})
	}
}

// §I's trimming critique end-to-end: a threshold-hugging attacker keeps
// its poison inside the trimming threshold, so trimming both fails to
// remove it *and* prunes honest tail reports; DAP, which never trims,
// stays accurate.
func TestOpportunisticDefeatsTrimmingNotDAP(t *testing.T) {
	vals, trueMean := integrationValues(20, 15000)
	adv := &Opportunistic{TrimFrac: 0.5, Margin: 0.1, Reference: vals}
	const gamma = 0.25

	reports, err := CollectPM(rng.New(21), vals, 1, adv, gamma, 0)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := Trimming(reports, 0.5, true)

	d := buildAs[Runner](t, Mean(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	est, err := d.Run(rng.New(21), vals, adv, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) >= math.Abs(trimmed-trueMean) {
		t.Fatalf("DAP (%v) should beat trimming (%v) vs truth %v under the threshold-hugging attack",
			est.Mean, trimmed, trueMean)
	}
}

// Confidence intervals from Theorem 6's variance bound cover the truth in
// the clean case (the bound is worst-case, so coverage is conservative).
func TestConfidenceIntervalCoversCleanTruth(t *testing.T) {
	vals, trueMean := integrationValues(22, 12000)
	d := buildAs[Runner](t, Mean(), WithBudget(1, 0.25), WithScheme(SchemeEMFStar))
	covered := 0
	for trial := 0; trial < 5; trial++ {
		est, err := d.Run(rng.Split(23, uint64(trial)), vals, NoAttack{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := est.ConfidenceInterval(0.99)
		if lo > hi {
			t.Fatal("inverted interval")
		}
		// Allow slack for the EMF false-positive bias on top of the CI.
		if trueMean >= lo-0.06 && trueMean <= hi+0.06 {
			covered++
		}
	}
	if covered < 4 {
		t.Fatalf("interval covered truth in %d/5 trials", covered)
	}
}

// Theorem 1 at the protocol level: a two-sided GBA and its constructive
// BBA reduction bias the undefended mean identically.
func TestTheorem1ProtocolEquivalence(t *testing.T) {
	r := rng.New(3)
	env := attack.EnvFor(pm.MustNew(1), 0)
	gba := &GBA{FracLeft: 0.35, LeftRange: RangeHighHalf, RightRange: RangeHighQuarter, Dist: DistUniform}
	poison := gba.Poison(r, env, 5000)

	reduced, side, err := ReduceToBBA(poison, 0, env.Domain.Lo, env.Domain.Hi)
	if err != nil {
		t.Fatal(err)
	}
	var devGBA, devBBA float64
	for _, v := range poison {
		devGBA += v
	}
	for _, v := range reduced {
		devBBA += v
	}
	if math.Abs(devGBA-devBBA) > 1e-6 {
		t.Fatalf("deviations differ: %v vs %v", devGBA, devBBA)
	}
	// The reduction's chosen side matches the heavier deviation side.
	if (devGBA > 0) != (side == SideRight) {
		t.Fatalf("side %v inconsistent with total deviation %v", side, devGBA)
	}
}

// The §V security argument end-to-end: an adversary who games the
// baseline's fixed probing budget destroys it, while DAP with the same
// total budget is unaffected (attackers cannot tell probing from
// estimation reports).
func TestGamedBaselineVsDAP(t *testing.T) {
	vals, trueMean := integrationValues(4, 20000)
	adv := NewBBA(RangeHighHalf, DistUniform)

	bl := buildAs[*core.Baseline](t, BaselineTask(1.0/8, 7.0/8), WithScheme(SchemeEMFStar))
	col, err := bl.GamedCollect(rng.New(5), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	gamed, err := bl.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}

	d := buildAs[Runner](t, Mean(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	dapEst, err := d.Run(rng.New(5), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	gamedErr := math.Abs(gamed.Mean - trueMean)
	dapErr := math.Abs(dapEst.Mean - trueMean)
	if dapErr*5 >= gamedErr {
		t.Fatalf("expected DAP (%v) to beat gamed baseline (%v) by >5x", dapErr, gamedErr)
	}
}

// The SW facade: distribution + mean estimation end-to-end.
func TestSWFacade(t *testing.T) {
	r := rng.New(6)
	vals := make([]float64, 12000)
	var sum float64
	for i := range vals {
		vals[i] = rng.Beta(r, 2, 5)
		sum += vals[i]
	}
	trueMean := sum / float64(len(vals))
	d := buildAs[Runner](t, Distribution(), WithBudget(1, 0.25), WithScheme(SchemeCEMFStar))
	est, err := d.Run(rng.New(7), vals, attack.SWTop{}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.12 {
		t.Fatalf("SW estimate %v vs truth %v", est.Mean, trueMean)
	}
	if len(est.XHat) == 0 {
		t.Fatal("distribution estimate missing")
	}
}

// The categorical facade end-to-end.
func TestFreqFacade(t *testing.T) {
	r := rng.New(8)
	cov := COVID19()
	cats := cov.Sample(r, 20000)
	f := buildAs[CatRunner](t, Frequency(cov.K()), WithBudget(1, 0.25), WithScheme(SchemeEMFStar))
	est, err := f.RunCats(rng.New(9), cats, []int{10}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range est.PoisonCats {
		if c == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoned category not located: %v", est.PoisonCats)
	}
}

// The variance extension end-to-end.
func TestVarianceExtensionIntegration(t *testing.T) {
	vals, _ := integrationValues(10, 24000)
	trueVar := stats.Variance(vals)
	ve := buildAs[Runner](t, Variance(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	est, err := ve.Run(rng.New(11), vals, NewBBA(RangeHighHalf, DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Variance-trueVar) > 0.12 {
		t.Fatalf("variance %v vs truth %v", est.Variance, trueVar)
	}
}

// Determinism across the whole pipeline at a fixed seed.
func TestFullPipelineDeterminism(t *testing.T) {
	vals, _ := integrationValues(12, 6000)
	adv := NewBBA(RangeHighHalf, DistUniform)
	run := func() float64 {
		d := buildAs[Runner](t, Mean(), WithBudget(1, 0.25), WithScheme(SchemeCEMFStar))
		est, err := d.Run(rng.New(13), vals, adv, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return est.Mean
	}
	if run() != run() {
		t.Fatal("pipeline not deterministic")
	}
}
