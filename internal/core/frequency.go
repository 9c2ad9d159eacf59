package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/krr"
	"repro/internal/stats"
)

// FreqDAP is the categorical instantiation of the protocol (§V-D,
// Fig. 9(c)(d)) — the Estimator Build returns for TaskFrequency: users
// hold one of K categories, perturb with k-RR, and Byzantine users inject
// reports directly into chosen categories. Poisoned categories are
// located by recursive side probing (Algorithm 3) and their injected mass
// removed by the usual schemes.
type FreqDAP struct {
	protocol
	mechs []*krr.Mechanism
}

// newFreqDAP precomputes the group mechanisms of a validated, normalized
// spec.
func newFreqDAP(sp Spec) (*FreqDAP, error) {
	d := &FreqDAP{protocol: newProtocol(sp)}
	d.mechs = make([]*krr.Mechanism, d.H())
	for t, g := range d.groups {
		mech, err := krr.New(g.Eps, sp.K)
		if err != nil {
			return nil, fmt.Errorf("core: krr group %d: %w", t, err)
		}
		d.mechs[t] = mech
	}
	return d, nil
}

// Mechanism returns the k-RR instance of group t.
func (d *FreqDAP) Mechanism(t int) *krr.Mechanism { return d.mechs[t] }

// OutputDomain returns the categorical report domain [0, K).
func (d *FreqDAP) OutputDomain(int) ldp.Domain { return ldp.Domain{Lo: 0, Hi: float64(d.sp.K)} }

// CollectFreq simulates the user side: normal users k-RR-perturb their
// category once per report slot; Byzantine users report uniformly among
// poisonCats directly (no perturbation — the direct-injection threat of
// Fig. 9(c)(d)). The per-group category counts come back as the histogram
// statistic EstimateHist consumes. It is the Targeted-adversary special
// case of CollectFreqAdv; the two produce bit-identical collections at
// equal seeds.
func (d *FreqDAP) CollectFreq(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*HistCollection, error) {
	if gamma > 0 && len(poisonCats) == 0 {
		return nil, fmt.Errorf("%w: gamma > 0 requires poison categories", ErrDomain)
	}
	for _, c := range poisonCats {
		if c < 0 || c >= d.sp.K {
			return nil, fmt.Errorf("%w: poison category %d out of range", ErrDomain, c)
		}
	}
	var adv attack.Adversary = attack.None{}
	if len(poisonCats) > 0 {
		adv = &attack.Targeted{Cats: poisonCats}
	}
	return d.CollectFreqAdv(r, cats, adv, gamma)
}

// CollectFreqAdv simulates the user side under an arbitrary categorical
// adversary: normal users k-RR-perturb their category once per report
// slot; Byzantine users inject the categories adv emits (as float64 ids
// over the domain [0, K)) directly, no perturbation. Reports outside
// [0, K) or non-integral are rejected with ErrDomain.
func (d *FreqDAP) CollectFreqAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*HistCollection, error) {
	n := len(cats)
	if n < d.H() {
		return nil, badCollection("fewer users than groups")
	}
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: gamma must lie in [0,1)", ErrDomain)
	}
	if adv == nil {
		adv = attack.None{}
	}
	nByz := int(math.Round(gamma * float64(n)))
	// One shuffle provides both the Byzantine subset (the fixed ids
	// {0..nByz−1}, scattered by the shuffle; their categories are never
	// reported) and the group assignment (contiguous chunks), mirroring
	// DAP.Collect — per-group Byzantine counts stay hypergeometric.
	perm := r.Perm(n)
	h := d.H()
	col := &HistCollection{Counts: make([][]float64, h)}
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.Env{Domain: ldp.Domain{Lo: 0, Hi: float64(d.sp.K)}, Group: t}
		counts := make([]float64, d.sp.K)
		for _, u := range perm[lo:hi] {
			if u < nByz {
				for _, v := range adv.Poison(r, env, g.Reports) {
					c := int(v)
					if v != float64(c) || c < 0 || c >= d.sp.K {
						return nil, fmt.Errorf("core: attack %q emitted %g, not a category in [0,%d): %w",
							adv.Name(), v, d.sp.K, ErrDomain)
					}
					counts[c]++
				}
			} else {
				for k := 0; k < g.Reports; k++ {
					counts[mech.PerturbCat(r, cats[u])]++
				}
			}
		}
		col.Counts[t] = counts
	}
	return col, nil
}

// Estimate accepts raw per-group category reports encoded as float64
// (the Collection currency shared with the numeric tasks); non-integral
// or out-of-range values are rejected with ErrDomain.
func (d *FreqDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != d.H() {
		return nil, badCollection("collection does not match group layout")
	}
	counts := make([][]float64, len(col.Groups))
	for t, reports := range col.Groups {
		counts[t] = make([]float64, d.sp.K)
		for _, v := range reports {
			c := int(v)
			if v != float64(c) || c < 0 || c >= d.sp.K {
				return nil, fmt.Errorf("%w: %g is not a category in [0,%d)", ErrDomain, v, d.sp.K)
			}
			counts[t][c]++
		}
	}
	return d.estimateFromCounts(counts, WarmFromContext(ctx))
}

// EstimateHist runs the collector side over per-group category counts
// (Counts[t][j] reports of category j in group t; Sums are not used).
func (d *FreqDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if hc == nil {
		return nil, badCollection("histogram collection does not match group layout")
	}
	return d.estimateFromCounts(hc.Counts, WarmFromContext(ctx))
}

// estimateFromCounts is the categorical collector pipeline. Solver
// telemetry excludes the category probe from WarmHits: warm seeds the
// per-group solver runs only (tolerance-equivalent; see WarmState), while
// the recursive category probe always runs cold — its poison sets shrink
// as the recursion descends, so no previous fit matches them reliably.
func (d *FreqDAP) estimateFromCounts(counts [][]float64, warm *WarmState) (*Result, error) {
	h := d.H()
	if len(counts) != h {
		return nil, badCollection("collection does not match group layout")
	}
	matrices := make([]*emf.Matrix, h)
	for t := 0; t < h; t++ {
		if len(counts[t]) != d.sp.K {
			return nil, badCollection("group %d counts have wrong arity", t)
		}
		matrices[t] = emf.BuildCategoricalCached(d.mechs[t])
	}
	// Probe poisoned categories and γ̂ at the smallest budget.
	probeSet, probeRes, err := emf.ProbeCategories(matrices[h-1], counts[h-1], d.cfg(h-1))
	if err != nil {
		return nil, err
	}
	gammaGlobal := probeRes.Gamma()

	est := &Result{
		Task:       TaskFrequency,
		Gamma:      gammaGlobal,
		PoisonCats: probeSet,
		GroupFreqs: make([][]float64, h),
	}
	var diag emfDiag
	diag.observe(probeRes)
	b := make([]float64, h)
	nHat := make([]float64, h)
	bases := make([]*emf.Result, h)
	finals := make([]*emf.Result, h)
	diags := make([]emfDiag, h)
	// The per-group EM fits are independent; run them concurrently (each
	// writes only its own index, so the output is order-independent).
	if err := forEachGroup(h, func(t int) error {
		wBase, wFinal := warm.seeds(t, h, probeRes)
		res, base, gammaT, err := d.fitGroup(matrices[t], counts[t], probeSet, gammaGlobal, d.cfg(t), wBase, wFinal)
		if err != nil {
			return err
		}
		bases[t], finals[t] = base, res
		diags[t].observe(res)
		if base != nil && base != res {
			diags[t].observe(base)
		}
		est.GroupFreqs[t] = stats.Normalize(res.X)
		nt := stats.Sum(counts[t])
		mHat := poisonMass(gammaT, nt)
		nHat[t] = (nt - mHat) * d.groups[t].Eps / d.sp.Eps
		b[t] = nHat[t] * d.mechs[t].WorstCaseVar()
		return nil
	}); err != nil {
		return nil, err
	}
	for t := range diags {
		diag.merge(diags[t])
	}
	diag.apply(est)
	est.Warm = &WarmState{bases: bases, finals: finals}
	w, err := OptimalWeights(b, nHat, d.weights)
	if err != nil {
		return nil, err
	}
	est.Weights = w
	freqs := make([]float64, d.sp.K)
	for t := 0; t < h; t++ {
		for j := range freqs {
			freqs[j] += w[t] * est.GroupFreqs[t][j]
		}
	}
	est.Freqs = stats.Normalize(freqs)
	return est, nil
}

// RunCats is CollectFreq followed by estimation — the categorical
// simulation entry point.
func (d *FreqDAP) RunCats(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error) {
	col, err := d.CollectFreq(r, cats, poisonCats, gamma)
	if err != nil {
		return nil, err
	}
	return d.estimateFromCounts(col.Counts, nil)
}

// RunCatsAdv is CollectFreqAdv followed by estimation — the simulation
// entry point for registry-selected categorical adversaries.
func (d *FreqDAP) RunCatsAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := d.CollectFreqAdv(r, cats, adv, gamma)
	if err != nil {
		return nil, err
	}
	return d.estimateFromCounts(col.Counts, nil)
}

// OstrichFreq estimates frequencies ignoring Byzantine users: per-group
// unbiased k-RR estimation aggregated with the same weights.
func (d *FreqDAP) OstrichFreq(col *HistCollection) ([]float64, error) {
	h := d.H()
	if col == nil || len(col.Counts) != h {
		return nil, badCollection("collection does not match group layout")
	}
	b := make([]float64, h)
	nHat := make([]float64, h)
	ests := make([][]float64, h)
	for t := 0; t < h; t++ {
		ests[t] = d.mechs[t].EstimateFreq(col.Counts[t])
		nt := stats.Sum(col.Counts[t])
		nHat[t] = nt * d.groups[t].Eps / d.sp.Eps
		b[t] = nHat[t] * d.mechs[t].WorstCaseVar()
	}
	w, err := OptimalWeights(b, nHat, d.weights)
	if err != nil {
		return nil, err
	}
	freqs := make([]float64, d.sp.K)
	for t := 0; t < h; t++ {
		for j := range freqs {
			f := ests[t][j]
			if f < 0 {
				f = 0
			}
			freqs[j] += w[t] * f
		}
	}
	return stats.Normalize(freqs), nil
}
