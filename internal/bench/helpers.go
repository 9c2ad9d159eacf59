package bench

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// epsLabels formats a budget like the paper's axis ticks (1/4, 1/2, …).
func epsLabel(eps float64) string {
	switch eps {
	case 0.0625:
		return "1/16"
	case 0.125:
		return "1/8"
	case 0.25:
		return "1/4"
	case 0.5:
		return "1/2"
	case 1.5:
		return "3/2"
	}
	return fmt.Sprintf("%g", eps)
}

// rangeLabels lists the paper's poison ranges in Table I / Fig. 6 order.
var rangeLabels = []string{"[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]"}

func mustRange(label string) attack.Range {
	rg, ok := attack.RangeByName(label)
	if !ok {
		panic("bench: unknown range " + label)
	}
	return rg
}

// loadDataset builds a dataset deterministically from the config seed so
// every trial sees the same population.
func loadDataset(cfg Config, name string) (*dataset.Numeric, error) {
	return dataset.ByName(rng.Split(cfg.Seed, 0xDA7A), name, cfg.N)
}

// meanDAP builds the paper's default mean-task protocol (ε₀ = 1/16) at
// the given scheme and budget; opts override the defaults.
func meanDAP(scheme core.Scheme, eps float64, maxIter int, opts ...core.Option) (*core.DAP, error) {
	est, err := core.Build(core.NewSpec(core.MeanTask(), append([]core.Option{
		core.WithBudget(eps, 1.0/16), core.WithScheme(scheme), core.WithEMFMaxIter(maxIter),
	}, opts...)...))
	if err != nil {
		return nil, err
	}
	return est.(*core.DAP), nil
}

// freqDAP builds the frequency-task protocol over k categories at the
// paper's ε₀ = 1/16.
func freqDAP(scheme core.Scheme, eps float64, k, maxIter int) (*core.FreqDAP, error) {
	est, err := core.Build(core.NewSpec(core.FrequencyTask(k),
		core.WithBudget(eps, 1.0/16), core.WithScheme(scheme), core.WithEMFMaxIter(maxIter)))
	if err != nil {
		return nil, err
	}
	return est.(*core.FreqDAP), nil
}

// dapTrial returns a sim.Trial running one full DAP round.
func dapTrial(d *core.DAP, values []float64, adv attack.Adversary, gamma float64) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		est, err := d.Run(r, values, adv, gamma)
		if err != nil {
			return 0, err
		}
		return est.Mean, nil
	}
}

// ostrichTrial averages a plain single-group PM collection.
func ostrichTrial(values []float64, eps float64, adv attack.Adversary, gamma float64) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
		if err != nil {
			return 0, err
		}
		return stats.Clamp(defense.Ostrich(reports), -1, 1), nil
	}
}

// trimmingTrial trims 50% from the poisoned side of a single-group
// collection.
func trimmingTrial(values []float64, eps float64, adv attack.Adversary, gamma float64, poisonedRight bool) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
		if err != nil {
			return 0, err
		}
		return stats.Clamp(defense.Trimming(reports, 0.5, poisonedRight), -1, 1), nil
	}
}

// probeGamma runs one single-group collection and returns the EMF γ̂
// estimate via side probing.
func probeGamma(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64, maxIter int) (float64, error) {
	reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
	if err != nil {
		return 0, err
	}
	mech := pm.MustNew(eps)
	d, dp := emf.BucketCounts(len(reports), mech.C())
	m, err := emf.BuildNumericCached(mech, d, dp)
	if err != nil {
		return 0, err
	}
	cfg := emf.Config{Tol: emf.PaperTol(eps), MaxIter: maxIter, Accelerate: true}
	probe, err := emf.ProbeSide(m, m.Counts(reports), 0, cfg)
	if err != nil {
		return 0, err
	}
	return probe.Chosen().Gamma(), nil
}

// splitFuture schedules one n-vector cell and fans it into n scalar
// futures, so rows that share underlying work (scheme rows estimating the
// same collections) still collect cell-by-cell in table order.
func splitFuture(p *pool, n int, fn func() ([]float64, error)) []*future[float64] {
	base := submit(p, fn)
	out := make([]*future[float64], n)
	for i := range out {
		f := &future[float64]{done: make(chan struct{})}
		out[i] = f
		go func(i int) {
			defer close(f.done)
			vals, err := base.get()
			if err != nil {
				f.err = err
				return
			}
			f.val = vals[i]
		}(i)
	}
	return out
}

// dapsForSchemes builds one DAP per estimation scheme at the same budget;
// their group layouts and mechanisms are identical, so one collection
// serves all of them.
func dapsForSchemes(eps float64, maxIter int) ([]*core.DAP, error) {
	schemes := core.Schemes()
	daps := make([]*core.DAP, len(schemes))
	for i, sc := range schemes {
		d, err := meanDAP(sc, eps, maxIter)
		if err != nil {
			return nil, err
		}
		daps[i] = d
	}
	return daps, nil
}

// dapSchemesTrial returns a trial that collects ONE set of reports and
// estimates it with every scheme, chaining the warm state from the first
// estimate into the rest (the deconvolution is identical across schemes —
// only the post-processing differs — so the later estimates converge in a
// handful of EM steps). Sharing the collection both removes the dominant
// perturbation cost of per-scheme collections and turns the scheme rows
// into a paired comparison on identical data.
func dapSchemesTrial(daps []*core.DAP, values []float64, adv attack.Adversary, gamma float64) sim.VecTrial {
	return func(r *rand.Rand) ([]float64, error) {
		col, err := daps[0].Collect(r, values, adv, gamma)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(daps))
		var warm *core.WarmState
		for i, d := range daps {
			est, err := d.Estimate(core.WithWarm(context.Background(), warm), col)
			if err != nil {
				return nil, err
			}
			if warm == nil {
				warm = est.Warm
			}
			out[i] = est.Mean
		}
		return out, nil
	}
}

// mseSchemes schedules a shared-collection scheme cell: one future per
// scheme, all backed by one sim.MSEPer evaluation.
func (p *pool) mseSchemes(seed uint64, trials int, truth float64, fn sim.VecTrial, n int) []*future[float64] {
	return splitFuture(p, n, func() ([]float64, error) { return sim.MSEPer(seed, trials, truth, fn) })
}
