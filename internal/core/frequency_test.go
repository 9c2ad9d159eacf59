package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNewFreqDAPValidation(t *testing.T) {
	if _, err := Build(NewSpec(FrequencyTask(1), WithBudget(1, 0.25))); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := Build(NewSpec(FrequencyTask(5), WithBudget(0, 0.25))); err == nil {
		t.Fatal("bad budgets accepted")
	}
}

func TestFreqCollectValidation(t *testing.T) {
	d := buildAs[*FreqDAP](t, FrequencyTask(15), WithBudget(1, 0.5), WithScheme(SchemeEMF))
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(1), 1000)
	if _, err := d.CollectFreq(rng.New(2), cats, nil, 0.25); err == nil {
		t.Fatal("gamma>0 without poison categories accepted")
	}
	if _, err := d.CollectFreq(rng.New(2), cats, []int{99}, 0.25); err == nil {
		t.Fatal("out-of-range category accepted")
	}
	if _, err := d.CollectFreq(rng.New(2), []int{1}, []int{2}, 0); err == nil {
		t.Fatal("too few users accepted")
	}
}

func TestFreqDAPDefendsSingleCategory(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(3), 30000)
	trueFreqs := cov.Freqs()
	for _, scheme := range Schemes() {
		d := buildAs[*FreqDAP](t, FrequencyTask(15), WithBudget(1, 0.25), WithScheme(scheme))
		col, err := d.CollectFreq(rng.New(4), cats, []int{10}, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		est, err := d.EstimateHist(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		ostrich, err := d.OstrichFreq(col)
		if err != nil {
			t.Fatal(err)
		}
		mseDAP := stats.MSEVec(est.Freqs, trueFreqs)
		mseOst := stats.MSEVec(ostrich, trueFreqs)
		if mseDAP >= mseOst {
			t.Fatalf("%v: DAP MSE %v should beat Ostrich %v", scheme, mseDAP, mseOst)
		}
		if math.Abs(stats.Sum(est.Freqs)-1) > 1e-9 {
			t.Fatalf("%v: frequencies sum to %v", scheme, stats.Sum(est.Freqs))
		}
	}
}

func TestFreqDAPMultiCategory(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(5), 30000)
	trueFreqs := cov.Freqs()
	d := buildAs[*FreqDAP](t, FrequencyTask(15), WithBudget(1, 0.25), WithScheme(SchemeCEMFStar))
	col, err := d.CollectFreq(rng.New(6), cats, []int{10, 11, 12}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	est, err := d.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	ostrich, err := d.OstrichFreq(col)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MSEVec(est.Freqs, trueFreqs) >= stats.MSEVec(ostrich, trueFreqs) {
		t.Fatal("multi-category DAP should beat Ostrich")
	}
}

func TestFreqDAPNoAttack(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(7), 20000)
	trueFreqs := cov.Freqs()
	d := buildAs[*FreqDAP](t, FrequencyTask(15), WithBudget(1, 0.25), WithScheme(SchemeEMFStar))
	est, err := d.RunCats(rng.New(8), cats, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mse := stats.MSEVec(est.Freqs, trueFreqs); mse > 0.002 {
		t.Fatalf("clean frequency MSE %v too high", mse)
	}
}

func TestFreqEstimateValidation(t *testing.T) {
	d := buildAs[*FreqDAP](t, FrequencyTask(5), WithBudget(1, 0.5), WithScheme(SchemeEMF))
	if _, err := d.EstimateHist(context.Background(), nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := d.EstimateHist(context.Background(), &HistCollection{Counts: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("wrong shape accepted")
	}
}
