package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

// buildAs builds the spec of task and opts and returns its estimator as
// T (a concrete protocol type or a simulation interface).
func buildAs[T any](t testing.TB, task Option, opts ...Option) T {
	t.Helper()
	est, err := Build(NewSpec(task, opts...))
	if err != nil {
		t.Fatal(err)
	}
	return est.(T)
}

func uniformValues(seed uint64, n int, lo, hi float64) ([]float64, float64) {
	r := rng.New(seed)
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = rng.Uniform(r, lo, hi)
		sum += vals[i]
	}
	return vals, sum / float64(n)
}

func TestNewDAPValidation(t *testing.T) {
	if _, err := Build(NewSpec(MeanTask(), WithBudget(0, 1))); err == nil {
		t.Fatal("eps=0 accepted")
	}
	// A zero ε₀ selects the ε/16 default; a negative one is rejected.
	if _, err := Build(NewSpec(MeanTask(), WithBudget(1, -0.5))); err == nil {
		t.Fatal("eps0<0 accepted")
	}
	if _, err := Build(NewSpec(MeanTask(), WithBudget(1, 2))); err == nil {
		t.Fatal("eps0 > eps accepted")
	}
}

func TestDAPGroupLayout(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMF))
	if d.H() != 5 {
		t.Fatalf("h = %d, want 5", d.H())
	}
	gs := d.Groups()
	for t2, g := range gs {
		wantEps := 1.0 / math.Pow(2, float64(t2))
		if math.Abs(g.Eps-wantEps) > 1e-12 {
			t.Fatalf("group %d eps = %v, want %v", t2, g.Eps, wantEps)
		}
		if g.Reports != 1<<t2 {
			t.Fatalf("group %d reports = %d, want %d", t2, g.Reports, 1<<t2)
		}
		// Per-user budget is preserved: reports · ε_t = ε.
		if math.Abs(float64(g.Reports)*g.Eps-1) > 1e-12 {
			t.Fatalf("group %d total budget %v, want 1", t2, float64(g.Reports)*g.Eps)
		}
	}
}

func TestDAPCollectShape(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(SchemeEMF))
	vals, _ := uniformValues(1, 9000, -1, 1)
	col, err := d.Collect(rng.New(2), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 3 {
		t.Fatalf("groups = %d", len(col.Groups))
	}
	for t2, g := range d.Groups() {
		want := 3000 * g.Reports
		if len(col.Groups[t2]) != want {
			t.Fatalf("group %d holds %d reports, want %d", t2, len(col.Groups[t2]), want)
		}
	}
	if col.ByzCount != 0 {
		t.Fatalf("byz count = %d", col.ByzCount)
	}
}

func TestDAPCollectValidation(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(SchemeEMF))
	if _, err := d.Collect(rng.New(1), []float64{1}, nil, 0); err == nil {
		t.Fatal("too few users accepted")
	}
	vals, _ := uniformValues(1, 100, -1, 1)
	if _, err := d.Collect(rng.New(1), vals, nil, 1.5); err == nil {
		t.Fatal("gamma > 1 accepted")
	}
}

func TestDAPEstimateValidation(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(SchemeEMF))
	if _, err := d.Estimate(context.Background(), nil); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := d.Estimate(context.Background(), &Collection{Groups: make([][]float64, 2)}); err == nil {
		t.Fatal("wrong group count accepted")
	}
	if _, err := d.Estimate(context.Background(), &Collection{Groups: make([][]float64, 3)}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestDAPNoAttackUnbiased(t *testing.T) {
	// The paper's ε₀ = 1/16: Fig. 5(c) shows the EMF false-positive rate
	// stays at 2–4% there, which bounds the clean-case bias.
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
	vals, trueMean := uniformValues(3, 20000, -0.6, 0.2)
	est, err := d.Run(rng.New(4), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.09 {
		t.Fatalf("clean estimate %v, want ~%v", est.Mean, trueMean)
	}
	if est.Gamma > 0.1 {
		t.Fatalf("clean γ̂ = %v, want small", est.Gamma)
	}
}

func TestDAPDefendsAgainstBBA(t *testing.T) {
	vals, trueMean := uniformValues(5, 15000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	const gamma = 0.25

	for _, scheme := range Schemes() {
		d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(scheme))
		est, err := d.Run(rng.New(6), vals, adv, gamma)
		if err != nil {
			t.Fatal(err)
		}
		// Ostrich on the same threat: single-group ε collection.
		reports, err := CollectPM(rng.New(6), vals, 1, adv, gamma, 0)
		if err != nil {
			t.Fatal(err)
		}
		ostrich := stats.Mean(reports)
		if math.Abs(est.Mean-trueMean) >= math.Abs(ostrich-trueMean) {
			t.Fatalf("%v: DAP (%v) should beat Ostrich (%v) vs truth %v",
				scheme, est.Mean, ostrich, trueMean)
		}
		if !est.PoisonedRight {
			t.Fatalf("%v: side probe failed", scheme)
		}
		if scheme != SchemeEMF && math.Abs(est.Gamma-gamma) > 0.12 {
			t.Fatalf("%v: γ̂ = %v, want ~%v", scheme, est.Gamma, gamma)
		}
	}
}

func TestDAPEstimateInternals(t *testing.T) {
	vals, _ := uniformValues(7, 12000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighQuarter, attack.DistUniform)
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(SchemeCEMFStar))
	est, err := d.Run(rng.New(8), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.GroupMeans) != 3 || len(est.Weights) != 3 || len(est.NHat) != 3 {
		t.Fatal("per-group outputs missing")
	}
	var wSum float64
	for _, w := range est.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wSum)
	}
	if est.VarMin <= 0 {
		t.Fatalf("VarMin = %v", est.VarMin)
	}
	// Larger-ε groups have lower worst-case variance and fewer reports;
	// with equal user counts they must receive more weight.
	if est.Weights[0] <= est.Weights[2] {
		t.Fatalf("weights not decreasing with group index: %v", est.Weights)
	}
	for _, m := range est.GroupMeans {
		if m < -1 || m > 1 {
			t.Fatalf("group mean %v outside [-1,1]", m)
		}
	}
}

func TestDAPDeterministicAtFixedSeed(t *testing.T) {
	vals, _ := uniformValues(9, 6000, -0.5, 0.5)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.5), WithScheme(SchemeEMF))
	a, err := d.Run(rng.New(10), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Run(rng.New(10), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean {
		t.Fatal("DAP not deterministic at fixed seed")
	}
}

func TestCollectPM(t *testing.T) {
	vals, _ := uniformValues(11, 5000, -1, 1)
	reports, err := CollectPM(rng.New(12), vals, 1, attack.None{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5000 {
		t.Fatalf("reports = %d", len(reports))
	}
	if _, err := CollectPM(rng.New(1), vals, -1, nil, 0, 0); err == nil {
		t.Fatal("bad eps accepted")
	}
}

func TestDAPWeightModeGeneral(t *testing.T) {
	vals, trueMean := uniformValues(13, 9000, -0.5, 0)
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 0.25), WithScheme(SchemeEMFStar), WithWeights(WeightsGeneral))
	est, err := d.Run(rng.New(14), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.3 {
		t.Fatalf("general-weights estimate %v far from %v", est.Mean, trueMean)
	}
}
