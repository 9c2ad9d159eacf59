package bench

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/sim"
)

// Ablation benchmarks the design choices DESIGN.md calls out, all on the
// Taxi workload (Poi[C/2,C], γ = 0.25, ε = 1):
//
//  1. minimum group budget ε₀ (which fixes the group count h);
//  2. CEMF*'s suppression threshold factor;
//  3. Algorithm 5's literal weights vs the general optimum;
//  4. the §IV baseline protocol against honest and probing-aware
//     (gamed) adversaries vs DAP — the motivation for the multi-group
//     design.
func Ablation(cfg Config) ([]*Table, error) {
	ds, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	trueMean := ds.TrueMean()
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	const eps, gamma = 1.0, 0.25
	p := cfg.newPool()

	// 1. ε₀ sweep.
	t1 := &Table{
		Title:  "Ablation 1: MSE vs ε₀ (group count) — DAP_EMF*, Taxi, Poi[C/2,C], ε=1",
		Header: []string{"ε₀", "h", "MSE"},
	}
	eps0List := []float64{0.25, 1.0 / 16, 1.0 / 64}
	futs1 := make([]*future[float64], len(eps0List))
	hs := make([]int, len(eps0List))
	for i, eps0 := range eps0List {
		d, err := meanDAP(core.SchemeEMFStar, eps, cfg.EMFMaxIter, core.WithBudget(eps, eps0))
		if err != nil {
			return nil, err
		}
		hs[i] = d.H()
		futs1[i] = p.mse(cfg.Seed+uint64(0xAB10+i), cfg.Trials, trueMean, dapTrial(d, ds.Values, adv, gamma))
	}

	// 2. Suppression factor sweep.
	t2 := &Table{
		Title:  "Ablation 2: MSE vs CEMF* suppression factor — Taxi, Poi[C/2,C], ε=1",
		Header: []string{"factor", "MSE"},
	}
	factors := []float64{0.25, 0.5, 1.0}
	futs2 := make([]*future[float64], len(factors))
	for i, factor := range factors {
		d, err := meanDAP(core.SchemeCEMFStar, eps, cfg.EMFMaxIter, core.WithSuppressFactor(factor))
		if err != nil {
			return nil, err
		}
		futs2[i] = p.mse(cfg.Seed+uint64(0xAB20+i), cfg.Trials, trueMean, dapTrial(d, ds.Values, adv, gamma))
	}

	// 3. Weight mode.
	t3 := &Table{
		Title:  "Ablation 3: Algorithm 5 weights vs general optimum — DAP_EMF*, Taxi, ε=1",
		Header: []string{"weights", "MSE"},
	}
	modes := []struct {
		name string
		mode core.WeightMode
	}{{"paper (Alg. 5)", core.WeightsPaper}, {"general n̂²/B", core.WeightsGeneral}}
	futs3 := make([]*future[float64], len(modes))
	for i, it := range modes {
		d, err := meanDAP(core.SchemeEMFStar, eps, cfg.EMFMaxIter, core.WithWeights(it.mode))
		if err != nil {
			return nil, err
		}
		futs3[i] = p.mse(cfg.Seed+uint64(0xAB30+i), cfg.Trials, trueMean, dapTrial(d, ds.Values, adv, gamma))
	}

	// 4. Baseline protocol vs DAP under probing-aware attackers.
	t4 := &Table{
		Title:  "Ablation 4: baseline (§IV) vs DAP (§V) under honest and gamed attackers — Taxi, ε=1",
		Header: []string{"protocol", "threat", "MSE"},
	}
	blEst, err := core.Build(core.NewSpec(core.BaselineTask(1.0/8, 7.0/8),
		core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(cfg.EMFMaxIter)))
	if err != nil {
		return nil, err
	}
	bl := blEst.(*core.Baseline)
	blTrial := func(gamed bool) sim.Trial {
		return func(r *rand.Rand) (float64, error) {
			var col *core.Collection
			var err error
			if gamed {
				col, err = bl.GamedCollect(r, ds.Values, adv, gamma)
			} else {
				col, err = bl.Collect(r, ds.Values, adv, gamma)
			}
			if err != nil {
				return 0, err
			}
			est, err := bl.Estimate(context.Background(), col)
			if err != nil {
				return 0, err
			}
			return est.Mean, nil
		}
	}
	futHonest := p.mse(cfg.Seed+0xAB40, cfg.Trials, trueMean, blTrial(false))
	futGamed := p.mse(cfg.Seed+0xAB41, cfg.Trials, trueMean, blTrial(true))
	dDAP, err := meanDAP(core.SchemeEMFStar, eps, cfg.EMFMaxIter)
	if err != nil {
		return nil, err
	}
	futDAP := p.mse(cfg.Seed+0xAB42, cfg.Trials, trueMean, dapTrial(dDAP, ds.Values, adv, gamma))

	// 5. Outlier-filter composability (§III-A): boxplot and isolation
	// forest as standalone defenses on the same workload.
	t5 := &Table{
		Title:  "Ablation 5: standalone outlier filters vs DAP — Taxi, Poi[C/2,C], ε=1, γ=0.25",
		Header: []string{"defense", "MSE"},
	}
	filterTrials := []struct {
		name  string
		trial sim.Trial
	}{
		{"Boxplot(1.5·IQR)", func(r *rand.Rand) (float64, error) {
			reports, err := core.CollectPM(r, ds.Values, eps, adv, gamma, 0)
			if err != nil {
				return 0, err
			}
			return clamp1(defense.Boxplot(reports, 1.5)), nil
		}},
		{"IForest(10%)", func(r *rand.Rand) (float64, error) {
			reports, err := core.CollectPM(r, ds.Values, eps, adv, gamma, 0)
			if err != nil {
				return 0, err
			}
			def := &defense.IForestDefense{Trees: 50, SampleSize: 256, Contamination: 0.1}
			est, err := def.Estimate(r, reports)
			if err != nil {
				return 0, err
			}
			return clamp1(est), nil
		}},
		{"DAP_EMF*", func(r *rand.Rand) (float64, error) {
			dd, err := meanDAP(core.SchemeEMFStar, eps, cfg.EMFMaxIter)
			if err != nil {
				return 0, err
			}
			est, err := dd.Run(r, ds.Values, adv, gamma)
			if err != nil {
				return 0, err
			}
			return est.Mean, nil
		}},
	}
	futs5 := make([]*future[float64], len(filterTrials))
	for i, ft := range filterTrials {
		futs5[i] = p.mse(cfg.Seed+uint64(0xAB50+i), cfg.Trials, trueMean, ft.trial)
	}

	// 6. Accuracy vs population size N: sampling noise scaling.
	t6 := &Table{
		Title:  "Ablation 6: MSE vs N — DAP_EMF*, Taxi, Poi[C/2,C], ε=1",
		Header: []string{"N", "MSE"},
	}
	scales := []int{cfg.N / 4, cfg.N / 2, cfg.N}
	futs6 := make([]*future[float64], len(scales))
	for i := range scales {
		if scales[i] < 100 {
			scales[i] = 100
		}
		sub, err := dataset.ByName(rngSplit(cfg.Seed, 0xAB60+uint64(i)), "Taxi", scales[i])
		if err != nil {
			return nil, err
		}
		dd, err := meanDAP(core.SchemeEMFStar, eps, cfg.EMFMaxIter)
		if err != nil {
			return nil, err
		}
		futs6[i] = p.mse(cfg.Seed+uint64(0xAB70+i), cfg.Trials, sub.TrueMean(),
			dapTrial(dd, sub.Values, adv, gamma))
	}

	// Collect in table order.
	for i, eps0 := range eps0List {
		v, err := futs1[i].get()
		if err != nil {
			return nil, err
		}
		t1.Rows = append(t1.Rows, []string{fmt.Sprintf("%g", eps0), fmt.Sprintf("%d", hs[i]), e2s(v)})
	}
	for i, factor := range factors {
		v, err := futs2[i].get()
		if err != nil {
			return nil, err
		}
		t2.Rows = append(t2.Rows, []string{fmt.Sprintf("%.2f", factor), e2s(v)})
	}
	for i, it := range modes {
		v, err := futs3[i].get()
		if err != nil {
			return nil, err
		}
		t3.Rows = append(t3.Rows, []string{it.name, e2s(v)})
	}
	mseHonest, err := futHonest.get()
	if err != nil {
		return nil, err
	}
	mseGamed, err := futGamed.get()
	if err != nil {
		return nil, err
	}
	mseDAP, err := futDAP.get()
	if err != nil {
		return nil, err
	}
	t4.Rows = append(t4.Rows,
		[]string{"baseline", "honest attack on both budgets", e2s(mseHonest)},
		[]string{"baseline", "gamed (honest ε_α, poison ε_β)", e2s(mseGamed)},
		[]string{"DAP", "gamed strategy impossible (random ε)", e2s(mseDAP)},
	)
	for i, ft := range filterTrials {
		v, err := futs5[i].get()
		if err != nil {
			return nil, err
		}
		t5.Rows = append(t5.Rows, []string{ft.name, e2s(v)})
	}
	for i := range scales {
		v, err := futs6[i].get()
		if err != nil {
			return nil, err
		}
		t6.Rows = append(t6.Rows, []string{fmt.Sprintf("%d", scales[i]), e2s(v)})
	}

	return []*Table{t1, t2, t3, t4, t5, t6}, nil
}

func clamp1(v float64) float64 {
	if v < -1 {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}
