package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig8 reproduces Fig. 8, the Square Wave extension (§V-D):
//
//	(a) Wasserstein distance of distribution estimation on Beta(2,5) for
//	    EMF/EMF*/CEMF* vs Ostrich (plain EMS), γ = 0.25, SW-top poison;
//	(b) |γ̂−γ| for SW with respect to ε on Beta(2,5) and Beta(5,2);
//	(c)(d) MSE of SW_EMF/SW_EMF*/SW_CEMF* vs Ostrich and Trimming with
//	    poison on [1+b/2, 1+b].
//
// Paper shapes: the proposed schemes improve the Wasserstein distance by
// at least ~10% over Ostrich; γ̂ sharpens as ε shrinks; the SW DAP
// schemes win the MSE comparison in most cases.
func Fig8(cfg Config) ([]*Table, error) {
	epsListA := []float64{0.0625, 0.125, 0.25, 0.5, 1, 2}
	// Raw Beta values on [0,1] — SW's native input domain.
	beta25 := rawBeta(cfg, 2, 5)
	beta52 := rawBeta(cfg, 5, 2)
	p := cfg.newPool()

	// Panel (a): distribution estimation quality.
	a := &Table{
		Title:  "Fig. 8(a): Wasserstein distance of distribution estimation — Beta(2,5), SW, γ=0.25",
		Header: append([]string{"Scheme"}, mapStrings(epsListA, epsLabel)...),
	}
	type recon struct {
		name         string
		scheme       core.Scheme
		ignorePoison bool
	}
	recons := []recon{
		{"EMF", core.SchemeEMF, false},
		{"EMF*", core.SchemeEMFStar, false},
		{"CEMF*", core.SchemeCEMFStar, false},
		{"Ostrich", 0, true},
	}
	futsA := make([][]*future[float64], len(recons))
	for si, rc := range recons {
		futsA[si] = make([]*future[float64], len(epsListA))
		for ei, eps := range epsListA {
			rc, eps := rc, eps
			futsA[si][ei] = p.avg(cfg.Seed+uint64(0x8A00+si*16+ei), cfg.Trials, func(r *rand.Rand) (float64, error) {
				reports, err := swCollect(r, beta25, eps, attack.SWTop{}, 0.25)
				if err != nil {
					return 0, err
				}
				s := &core.SWSingle{Eps: eps, Scheme: rc.scheme, IgnorePoison: rc.ignorePoison, EMFMaxIter: cfg.EMFMaxIter}
				xhat, _, err := s.Reconstruct(reports)
				if err != nil {
					return 0, err
				}
				trueHist := stats.Histogram(beta25, 0, 1, len(xhat)).Normalized()
				return stats.Wasserstein1(xhat, trueHist, 1/float64(len(xhat))), nil
			})
		}
	}

	// Panel (b): γ̂ accuracy for SW.
	b := &Table{
		Title:  "Fig. 8(b): |γ̂−γ| for SW vs ε, γ=0.25, Poi[1+b/2,1+b]",
		Header: append([]string{"Dataset"}, mapStrings(epsListA, epsLabel)...),
	}
	betaSets := []struct {
		name string
		vals []float64
	}{{"Beta(2,5)", beta25}, {"Beta(5,2)", beta52}}
	futsB := make([][]*future[float64], len(betaSets))
	for di, it := range betaSets {
		futsB[di] = make([]*future[float64], len(epsListA))
		for ei, eps := range epsListA {
			vals, eps := it.vals, eps
			futsB[di][ei] = p.avg(cfg.Seed+uint64(0x8B00+di*16+ei), cfg.Trials, func(r *rand.Rand) (float64, error) {
				gh, err := probeGammaSW(r, vals, eps, attack.SWTop{}, 0.25, cfg.EMFMaxIter)
				if err != nil {
					return 0, err
				}
				return math.Abs(gh - 0.25), nil
			})
		}
	}
	for si, rc := range recons {
		row, err := collectCells([]string{rc.name}, futsA[si], e2s)
		if err != nil {
			return nil, err
		}
		a.Rows = append(a.Rows, row)
	}
	for di, it := range betaSets {
		row, err := collectCells([]string{it.name}, futsB[di], e2s)
		if err != nil {
			return nil, err
		}
		b.Rows = append(b.Rows, row)
	}

	// Panels (c)(d): SW DAP mean-estimation MSE.
	epsListC := []float64{0.25, 0.5, 1, 1.5, 2}
	var tables []*Table
	tables = append(tables, a, b)
	for pi, it := range []struct {
		name string
		vals []float64
	}{{"Beta(2,5)", beta25}, {"Beta(5,2)", beta52}} {
		trueMean := stats.Mean(it.vals)
		t := &Table{
			Title:  fmt.Sprintf("Fig. 8(%c): MSE vs ε — %s, SW, Poi[1+b/2,1+b], γ=0.25", 'c'+pi, it.name),
			Header: append([]string{"Scheme"}, mapStrings(epsListC, epsLabel)...),
		}
		type sch struct {
			name  string
			trial func(eps float64) sim.Trial
		}
		schemes := []sch{}
		for _, sc := range core.Schemes() {
			sc := sc
			schemes = append(schemes, sch{
				name: "SW_" + sc.String(),
				trial: func(eps float64) sim.Trial {
					d, err := core.Build(core.NewSpec(core.DistributionTask(),
						core.WithBudget(eps, 1.0/16), core.WithScheme(sc), core.WithEMFMaxIter(cfg.EMFMaxIter)))
					if err != nil {
						panic(err)
					}
					vals := it.vals
					return func(r *rand.Rand) (float64, error) {
						est, err := d.(core.Runner).Run(r, vals, attack.SWTop{}, 0.25)
						if err != nil {
							return 0, err
						}
						return est.Mean, nil
					}
				},
			})
		}
		schemes = append(schemes,
			sch{name: "Ostrich", trial: func(eps float64) sim.Trial {
				return swOstrichTrial(it.vals, eps, attack.SWTop{}, 0.25, cfg.EMFMaxIter, false)
			}},
			sch{name: "Trimming", trial: func(eps float64) sim.Trial {
				return swOstrichTrial(it.vals, eps, attack.SWTop{}, 0.25, cfg.EMFMaxIter, true)
			}},
		)
		futs := make([][]*future[float64], len(schemes))
		for si, sc := range schemes {
			futs[si] = make([]*future[float64], len(epsListC))
			for ei, eps := range epsListC {
				futs[si][ei] = p.mse(cfg.Seed+uint64(0x8C00+pi*1000+si*16+ei), cfg.Trials, trueMean, sc.trial(eps))
			}
		}
		for si, sc := range schemes {
			row, err := collectCells([]string{sc.name}, futs[si], e2s)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// rawBeta draws cfg.N Beta(a,b) samples on [0,1].
func rawBeta(cfg Config, a, b float64) []float64 {
	r := rng.Split(cfg.Seed, uint64(0xBE7A)+uint64(a)*10+uint64(b))
	out := make([]float64, cfg.N)
	for i := range out {
		out[i] = rng.Beta(r, a, b)
	}
	return out
}

// swCollect gathers one single-group SW collection under attack.
func swCollect(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64) ([]float64, error) {
	mech, err := sw.New(eps)
	if err != nil {
		return nil, err
	}
	n := len(values)
	nByz := int(math.Round(gamma * float64(n)))
	env := attack.EnvFor(mech, 0.5)
	reports := make([]float64, 0, n)
	reports = append(reports, adv.Poison(r, env, nByz)...)
	// As in core.CollectPM: report order is irrelevant downstream, so a
	// sampled Byzantine bitset replaces the full O(N) permutation.
	byz := core.SampleSubset(r, n, nByz)
	for u, v := range values {
		if byz == nil || byz[u>>6]&(1<<(uint(u)&63)) == 0 {
			reports = append(reports, mech.Perturb(r, v))
		}
	}
	return reports, nil
}

// probeGammaSW estimates γ̂ from one SW collection via side probing.
func probeGammaSW(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64, maxIter int) (float64, error) {
	reports, err := swCollect(r, values, eps, adv, gamma)
	if err != nil {
		return 0, err
	}
	mech := sw.MustNew(eps)
	d, dp := emf.BucketCounts(len(reports), mech.OutputDomain().Width())
	m, err := emf.BuildNumericCached(mech, d, dp)
	if err != nil {
		return 0, err
	}
	cfg := emf.Config{Tol: emf.PaperTol(eps), MaxIter: maxIter, Smooth: true}
	probe, err := emf.ProbeSide(m, m.Counts(reports), 0.5, cfg)
	if err != nil {
		return 0, err
	}
	return probe.Chosen().Gamma(), nil
}

// swOstrichTrial estimates the mean with plain EMS on a single-group SW
// collection; with trim it first removes the top 50% of the reports (the
// Fig. 8 Trimming baseline).
func swOstrichTrial(values []float64, eps float64, adv attack.Adversary, gamma float64, maxIter int, trim bool) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		reports, err := swCollect(r, values, eps, adv, gamma)
		if err != nil {
			return 0, err
		}
		if trim {
			sort.Float64s(reports)
			reports = reports[:len(reports)/2]
		}
		s := &core.SWSingle{Eps: eps, IgnorePoison: true, EMFMaxIter: maxIter}
		xhat, centers, err := s.Reconstruct(reports)
		if err != nil {
			return 0, err
		}
		return stats.Clamp(stats.HistMean(xhat, centers), 0, 1), nil
	}
}
