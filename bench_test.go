package dap

// One benchmark per paper table/figure (each iteration regenerates the
// experiment at reduced scale; use cmd/dapbench for paper-scale runs)
// plus micro-benchmarks of the hot paths: PM perturbation, transform
// matrix construction, EMF iterations and the full DAP pipeline.

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
)

// benchConfig keeps each experiment iteration sub-second; cmd/dapbench
// scales N and trials up for paper-shaped output.
func benchConfig() bench.Config {
	return bench.Config{N: 2000, Trials: 1, Seed: 1, EMFMaxIter: 60}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := bench.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkFig4Datasets(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5Gamma(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6MSE(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig7Robustness(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8SW(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9Defense(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10Evasion(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkAblation(b *testing.B)       { runExperiment(b, "ablation") }

// --- micro-benchmarks ---

func BenchmarkPMPerturb(b *testing.B) {
	m := pm.MustNew(1)
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Perturb(r, 0.5)
	}
}

func BenchmarkPMIntervalProb(b *testing.B) {
	m := pm.MustNew(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.IntervalProb(0.3, -0.5, 1.2)
	}
}

func BenchmarkMatrixBuild(b *testing.B) {
	m := pm.MustNew(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := emf.BuildNumeric(m, 64, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEMFInput builds a fixed poisoned collection for the EM benches.
func benchEMFInput(b *testing.B) (*emf.Matrix, []float64, []int) {
	b.Helper()
	r := rng.New(1)
	mech := pm.MustNew(0.5)
	d, dp := emf.BucketCounts(20000, mech.C())
	m, err := emf.BuildNumeric(mech, d, dp)
	if err != nil {
		b.Fatal(err)
	}
	reports := make([]float64, 0, 20000)
	for i := 0; i < 15000; i++ {
		reports = append(reports, mech.Perturb(r, rng.Uniform(r, -1, 0)))
	}
	c := mech.C()
	for i := 0; i < 5000; i++ {
		reports = append(reports, rng.Uniform(r, c/2, c))
	}
	return m, m.Counts(reports), m.PoisonRight(0)
}

// BenchmarkEStepBanded measures 100 fixed EM iterations on the structured
// banded path — the innermost hot loop of the repository (divide by 100
// for the per-iteration cost; a single iteration would be dominated by
// state setup and result copying).
func BenchmarkEStepBanded(b *testing.B) {
	m, counts, poison := benchEMFInput(b)
	if !m.Banded() {
		b.Fatal("expected a banded matrix")
	}
	cfg := emf.Config{MaxIter: 100, Tol: 1e-300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emf.Run(m, counts, poison, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEStepDense is the same 100 iterations forced onto the dense
// reference path, so the banded speedup stays measurable over time.
func BenchmarkEStepDense(b *testing.B) {
	m, counts, poison := benchEMFInput(b)
	cfg := emf.Config{MaxIter: 100, Tol: 1e-300, Dense: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emf.Run(m, counts, poison, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate measures the collector side alone (matrix reuse, side
// probe, h parallel group fits, aggregation) over a fixed collection.
func BenchmarkEstimate(b *testing.B) {
	r := rng.New(1)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0)
	}
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := buildAs[*core.DAP](b, core.MeanTask(), core.WithBudget(1, 1.0/16), core.WithScheme(core.SchemeCEMFStar), core.WithEMFMaxIter(100))
	col, err := d.Collect(rng.Split(8, 1), values, adv, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Estimate(context.Background(), col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Cell regenerates one cell of the hottest experiment (the
// unit the BENCH_*.json trajectory tracks at full scale).
func BenchmarkFig5Cell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5Cell(bench.Config{N: 20000, Trials: 1, Seed: uint64(i + 1), EMFMaxIter: 200}, 1, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMFRun(b *testing.B) {
	m, counts, poison := benchEMFInput(b)
	cfg := emf.Config{MaxIter: 100, Tol: 1e-300} // fixed 100 iterations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emf.Run(m, counts, poison, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMFStarRun(b *testing.B) {
	m, counts, poison := benchEMFInput(b)
	cfg := emf.Config{MaxIter: 100, Tol: 1e-300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emf.RunConstrained(m, counts, poison, 0.25, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSideProbe(b *testing.B) {
	m, counts, _ := benchEMFInput(b)
	cfg := emf.Config{MaxIter: 50, Tol: 1e-300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emf.ProbeSide(m, counts, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDAPEndToEnd(b *testing.B) {
	r := rng.New(1)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Uniform(r, -0.8, 0)
	}
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := buildAs[Runner](b, core.MeanTask(), core.WithBudget(1, 1.0/16), core.WithScheme(core.SchemeCEMFStar), core.WithEMFMaxIter(60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(rng.Split(2, uint64(i)), values, adv, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregationWeights(b *testing.B) {
	bt := []float64{1, 2, 4, 8, 16}
	nh := []float64{100, 100, 100, 100, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimalWeights(bt, nh, core.WeightsPaper); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKRRCollect(b *testing.B) {
	cov := COVID19()
	r := rng.New(1)
	cats := cov.Sample(r, 5000)
	f := buildAs[CatRunner](b, core.FrequencyTask(cov.K()), core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunCats(rng.Split(3, uint64(i)), cats, []int{10}, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkFloat float64

func BenchmarkTheorem1Reduction(b *testing.B) {
	r := rng.New(1)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Uniform(r, -3, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := attack.ReduceToBBA(vals, 0, -3, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) > 0 {
			sinkFloat = out[0]
		}
	}
}

func BenchmarkAccountlessPerturbRound(b *testing.B) {
	// Full user-side round: assignment, repeated perturbation.
	d := buildAs[Collector](b, core.MeanTask(), core.WithBudget(1, 1.0/16), core.WithScheme(core.SchemeEMF))
	r := rng.New(1)
	values := make([]float64, 2000)
	for i := range values {
		values[i] = rng.Uniform(r, -1, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Collect(rng.Split(4, uint64(i)), values, attack.None{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the facade remains wired to the internal packages.
func TestFacadeEndToEnd(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	values := make([]float64, 4000)
	var sum float64
	for i := range values {
		values[i] = r.Float64()*0.8 - 0.9
		sum += values[i]
	}
	trueMean := sum / float64(len(values))
	d := buildAs[Runner](t, Mean(), WithBudget(1, 0.25), WithScheme(SchemeCEMFStar))
	est, err := d.Run(r, values, NewBBA(RangeHighHalf, DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean < trueMean-0.35 || est.Mean > trueMean+0.35 {
		t.Fatalf("facade estimate %v far from %v", est.Mean, trueMean)
	}
	if !est.PoisonedRight {
		t.Fatal("facade side probe failed")
	}
}

func TestFacadeDatasets(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, name := range []string{"Beta(2,5)", "Beta(5,2)", "Taxi", "Retirement"} {
		ds, err := DatasetByName(r, name, 500)
		if err != nil {
			t.Fatal(err)
		}
		if ds.N() != 500 {
			t.Fatalf("%s: N=%d", name, ds.N())
		}
	}
	if COVID19().K() != 15 {
		t.Fatal("COVID19 dataset broken")
	}
}

func TestFacadeDefenses(t *testing.T) {
	if got := Ostrich([]float64{1, 3}); got != 2 {
		t.Fatalf("Ostrich = %v", got)
	}
	if got := Trimming([]float64{1, 2, 3, 100}, 0.25, true); got != 2 {
		t.Fatalf("Trimming = %v", got)
	}
	if got := Boxplot([]float64{1, 1, 1, 1, 50}, 1.5); got != 1 {
		t.Fatalf("Boxplot = %v", got)
	}
}

func TestFacadeTheorem1(t *testing.T) {
	out, side, err := ReduceToBBA([]float64{-2, 1}, 0, -3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if side != SideLeft {
		t.Fatalf("side = %v", side)
	}
	var dev float64
	for _, v := range out {
		dev += v
	}
	if dev != -1 {
		t.Fatalf("deviation %v, want -1", dev)
	}
}
