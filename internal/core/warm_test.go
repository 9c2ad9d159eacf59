package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/rng"
)

// warmMeanFixture builds a mean-task DAP and one attacked collection.
func warmMeanFixture(t *testing.T, scheme Scheme) (*DAP, *Collection) {
	t.Helper()
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(scheme))
	r := rng.New(21)
	values := make([]float64, 6000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0.1)
	}
	col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return d, col
}

// Warm-starting an estimate from its own fits must reproduce the cold fit
// within tolerance while cutting solver iterations — for every mechanism
// (PM mean, SW distribution, k-RR frequency).
func TestWarmStartToleranceEquivalence(t *testing.T) {
	t.Run("pm", func(t *testing.T) {
		for _, scheme := range Schemes() {
			d, col := warmMeanFixture(t, scheme)
			cold, err := d.Estimate(context.Background(), col)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := d.Estimate(WithWarm(context.Background(), cold.Warm), col)
			if err != nil {
				t.Fatal(err)
			}
			if warm.WarmHits == 0 {
				t.Fatalf("%v: no solver run was warm-started", scheme)
			}
			if warm.EMFIters >= cold.EMFIters {
				t.Fatalf("%v: warm start did not cut iterations: %d vs %d", scheme, warm.EMFIters, cold.EMFIters)
			}
			if diff := math.Abs(warm.Mean - cold.Mean); diff > 0.02 {
				t.Fatalf("%v: warm mean %v vs cold %v", scheme, warm.Mean, cold.Mean)
			}
			for g := range cold.GroupMeans {
				if diff := math.Abs(warm.GroupMeans[g] - cold.GroupMeans[g]); diff > 0.05 {
					t.Fatalf("%v: group %d mean warm %v vs cold %v", scheme, g, warm.GroupMeans[g], cold.GroupMeans[g])
				}
			}
		}
	})
	t.Run("sw", func(t *testing.T) {
		d := buildAs[*SWDAP](t, DistributionTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
		r := rng.New(22)
		values := make([]float64, 6000)
		for i := range values {
			values[i] = rng.Beta(r, 2, 5)
		}
		col, err := d.Collect(r, values, attack.SWTop{}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := d.Estimate(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := d.Estimate(WithWarm(context.Background(), cold.Warm), col)
		if err != nil {
			t.Fatal(err)
		}
		if warm.WarmHits == 0 {
			t.Fatal("no SW solver run was warm-started")
		}
		if warm.EMFIters >= cold.EMFIters {
			t.Fatalf("SW warm start did not cut iterations: %d vs %d", warm.EMFIters, cold.EMFIters)
		}
		if diff := math.Abs(warm.Mean - cold.Mean); diff > 0.02 {
			t.Fatalf("SW warm mean %v vs cold %v", warm.Mean, cold.Mean)
		}
		for k := range cold.XHat {
			if diff := math.Abs(warm.XHat[k] - cold.XHat[k]); diff > 0.02 {
				t.Fatalf("x̂[%d]: warm %v vs cold %v", k, warm.XHat[k], cold.XHat[k])
			}
		}
	})
	t.Run("krr", func(t *testing.T) {
		f := buildAs[*FreqDAP](t, FrequencyTask(12), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar))
		r := rng.New(23)
		cats := make([]int, 8000)
		for i := range cats {
			cats[i] = r.IntN(12) % 7
		}
		col, err := f.CollectFreq(r, cats, []int{11}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := f.EstimateHist(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := f.EstimateHist(WithWarm(context.Background(), cold.Warm), col)
		if err != nil {
			t.Fatal(err)
		}
		if warm.WarmHits == 0 {
			t.Fatal("no k-RR solver run was warm-started")
		}
		if warm.EMFIters >= cold.EMFIters {
			t.Fatalf("k-RR warm start did not cut iterations: %d vs %d", warm.EMFIters, cold.EMFIters)
		}
		for j := range cold.Freqs {
			if diff := math.Abs(warm.Freqs[j] - cold.Freqs[j]); diff > 0.02 {
				t.Fatalf("freq[%d]: warm %v vs cold %v", j, warm.Freqs[j], cold.Freqs[j])
			}
		}
	})
}

// The γ-grid sweep case: an estimate warm-started from a *different*
// collection's fits (neighbouring γ) must agree with the cold estimate of
// the same collection within tolerance.
func TestWarmStartAcrossCollections(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeCEMFStar))
	r := rng.New(31)
	values := make([]float64, 6000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0.1)
	}
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	colA, err := d.Collect(r, values, adv, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	colB, err := d.Collect(r, values, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.Estimate(context.Background(), colA)
	if err != nil {
		t.Fatal(err)
	}
	coldB, err := d.Estimate(context.Background(), colB)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := d.Estimate(WithWarm(context.Background(), first.Warm), colB)
	if err != nil {
		t.Fatal(err)
	}
	if warmB.WarmHits == 0 {
		t.Fatal("no solver run was warm-started from the neighbour cell")
	}
	if diff := math.Abs(warmB.Mean - coldB.Mean); diff > 0.02 {
		t.Fatalf("neighbour-warmed mean %v vs cold %v", warmB.Mean, coldB.Mean)
	}
	if diff := math.Abs(warmB.Gamma - coldB.Gamma); diff > 0.02 {
		t.Fatalf("neighbour-warmed γ̂ %v vs cold %v", warmB.Gamma, coldB.Gamma)
	}
}

// The context plumbing: estimators built by Build read the warm state
// from the context and hand the successor state back in Result.Warm.
func TestWarmStateViaContext(t *testing.T) {
	if WarmFromContext(context.Background()) != nil {
		t.Fatal("empty context produced a warm state")
	}
	if WarmFromContext(nil) != nil {
		t.Fatal("nil context produced a warm state")
	}
	est, err := Build(NewSpec(MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar)))
	if err != nil {
		t.Fatal(err)
	}
	collector := est.(Collector)
	r := rng.New(41)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.5, 0.5)
	}
	col, err := collector.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if first.Warm == nil {
		t.Fatal("estimate returned no warm state")
	}
	// Even a cold estimate warm-chains internally (the probe fit seeds
	// group h−1), so the context-carried state must add strictly more
	// warm-started runs (both probes plus every group fit).
	second, err := est.Estimate(WithWarm(context.Background(), first.Warm), col)
	if err != nil {
		t.Fatal(err)
	}
	if second.WarmHits <= first.WarmHits {
		t.Fatalf("context-carried warm state was not applied: %d warm hits vs cold %d",
			second.WarmHits, first.WarmHits)
	}
	if math.Abs(second.Mean-first.Mean) > 0.02 {
		t.Fatalf("warm mean %v vs cold %v", second.Mean, first.Mean)
	}
}

// A mismatched warm state (different layout) must silently degrade to a
// cold start, not crash or corrupt the estimate.
func TestWarmStateLayoutMismatch(t *testing.T) {
	d, col := warmMeanFixture(t, SchemeEMFStar)
	cold, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	other := buildAs[*DAP](t, MeanTask(), WithBudget(2, 1.0/16), WithScheme(SchemeEMFStar))
	r := rng.New(51)
	values := make([]float64, 6000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0.1)
	}
	colOther, err := other.Collect(r, values, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	estOther, err := other.Estimate(context.Background(), colOther)
	if err != nil {
		t.Fatal(err)
	}
	// 6-group warm state fed to a 5-group protocol with different bucket
	// resolutions: every seed is shape-checked away.
	res, err := d.Estimate(WithWarm(context.Background(), estOther.Warm), col)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Mean - cold.Mean); diff > 0.05 {
		t.Fatalf("mismatched warm state shifted the estimate: %v vs %v", res.Mean, cold.Mean)
	}
}

// The per-iteration estimation path must stay allocation-free: raising the
// iteration budget may not raise the allocation count of EstimateHist.
func TestEstimateHistIterationAllocsStable(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard applies to production builds")
	}
	build := func(maxIter int) *DAP {
		d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar), WithEMFMaxIter(maxIter))
		return d
	}
	dShort, dLong := build(6), build(120)
	_, col := warmMeanFixture(t, SchemeEMFStar)
	hc := histFromCollection(t, dShort, col)
	measure := func(d *DAP) float64 {
		// Warm the matrix cache and state pool off the measurement.
		if _, err := d.EstimateHist(context.Background(), hc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := d.EstimateHist(context.Background(), hc); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(dShort), measure(dLong)
	// Slack of a few allocs absorbs pool refills under GC pressure; the
	// guard catches per-iteration allocations, which would scale ~20x.
	if long > short+4 {
		t.Fatalf("iterations allocate: %v allocs at 6 iters vs %v at 120", short, long)
	}
}

func BenchmarkEstimateHist(b *testing.B) {
	d := buildAs[*DAP](b, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMFStar), WithEMFMaxIter(60))
	r := rng.New(61)
	values := make([]float64, 6000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0.1)
	}
	col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.25)
	if err != nil {
		b.Fatal(err)
	}
	hc := &HistCollection{Counts: make([][]float64, d.H()), Sums: make([]float64, d.H())}
	for g, reports := range col.Groups {
		din, dprime := emf.BucketCounts(len(reports), d.Mechanism(g).C())
		m, err := emf.BuildNumericCached(d.Mechanism(g), din, dprime)
		if err != nil {
			b.Fatal(err)
		}
		hc.Counts[g] = m.Counts(reports)
		for _, v := range reports {
			hc.Sums[g] += v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.EstimateHist(context.Background(), hc); err != nil {
			b.Fatal(err)
		}
	}
}
