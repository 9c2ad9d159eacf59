package core

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
)

func testValues(n int) []float64 {
	r := rng.New(42)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.9, 0.2)
	}
	return values
}

// TestEstimateDeterministicUnderConcurrency: the collector side fans the
// per-group EM fits out on goroutines; repeated Estimate calls over the
// same collection must be bit-identical.
func TestEstimateDeterministicUnderConcurrency(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeCEMFStar))
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	col, err := d.Collect(rng.New(5), testValues(6000), adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		again, err := d.Estimate(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("Estimate diverged on repeat %d:\n%+v\nvs\n%+v", rep, first, again)
		}
	}
}

// TestEstimateFreqDeterministicUnderConcurrency is the categorical analog.
func TestEstimateFreqDeterministicUnderConcurrency(t *testing.T) {
	d := buildAs[*FreqDAP](t, FrequencyTask(12), WithBudget(1, 0.25), WithScheme(SchemeEMFStar))
	r := rng.New(6)
	cats := make([]int, 5000)
	for i := range cats {
		cats[i] = r.IntN(12)
	}
	col, err := d.CollectFreq(rng.New(7), cats, []int{3}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		again, err := d.EstimateHist(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("EstimateHist diverged on repeat %d", rep)
		}
	}
}

// sentinelAdv reports a fixed poison value so tests can count Byzantine
// reports per group.
type sentinelAdv struct{ v float64 }

func (s sentinelAdv) Name() string { return "sentinel" }
func (s sentinelAdv) Poison(_ *rand.Rand, _ attack.Env, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = s.v
	}
	return out
}

// TestCollectSpreadsByzantineAcrossGroups guards the single-shuffle
// Collect: the strided Byzantine slots must land ~γ in every group (the
// naive prefix split would concentrate them all in the first groups).
func TestCollectSpreadsByzantineAcrossGroups(t *testing.T) {
	d := buildAs[*DAP](t, MeanTask(), WithBudget(1, 1.0/16), WithScheme(SchemeEMF))
	const gamma = 0.25
	col, err := d.Collect(rng.New(9), testValues(20000), sentinelAdv{v: 99}, gamma)
	if err != nil {
		t.Fatal(err)
	}
	for tdx, g := range d.Groups() {
		reports := col.Groups[tdx]
		poisoned := 0
		for _, v := range reports {
			if v == 99 {
				poisoned++
			}
		}
		frac := float64(poisoned) / float64(len(reports))
		if frac < gamma-0.05 || frac > gamma+0.05 {
			t.Fatalf("group %d (ε=%v): Byzantine fraction %v, want ≈%v", tdx, g.Eps, frac, gamma)
		}
	}
}

// TestSampleSubset checks uniform k-subset sampling basics.
func TestSampleSubset(t *testing.T) {
	if SampleSubset(rng.New(1), 100, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	set := SampleSubset(rng.New(1), 1000, 250)
	count := 0
	for i := 0; i < 1000; i++ {
		if set[i>>6]&(1<<(uint(i)&63)) != 0 {
			count++
		}
	}
	if count != 250 {
		t.Fatalf("subset size %d, want 250", count)
	}
}
