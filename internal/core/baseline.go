package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/stats"
)

// Baseline is the §IV protocol — the Estimator Build returns for
// TaskBaseline: every user perturbs her value twice, once with a small
// probing budget ε_α and once with the estimation budget ε_β (ε_α + ε_β =
// ε, ε_α ≪ ε_β). The collector probes Byzantine features on the ε_α
// reports with EMF and removes the poison mass from the ε_β mean
// (Eq. 12). Its known flaw — attackers may behave honestly on the probing
// budget — motivates DAP and is reproducible via GamedCollect.
type Baseline struct {
	sp                  Spec
	scheme              Scheme
	mechAlpha, mechBeta *pm.Mechanism
}

// newBaseline precomputes the two mechanisms of a validated, normalized
// spec.
func newBaseline(sp Spec) (*Baseline, error) {
	scheme, _ := ParseScheme(sp.Scheme)
	ma, err := pm.New(sp.EpsAlpha)
	if err != nil {
		return nil, err
	}
	mb, err := pm.New(sp.EpsBeta)
	if err != nil {
		return nil, err
	}
	return &Baseline{sp: sp, scheme: scheme, mechAlpha: ma, mechBeta: mb}, nil
}

// Spec returns the normalized spec the protocol was built from.
func (b *Baseline) Spec() Spec { return b.sp }

// Groups returns the two-budget layout: the probing budget ε_α and the
// estimation budget ε_β, one report each.
func (b *Baseline) Groups() []Group {
	return []Group{
		{Index: 0, Eps: b.sp.EpsAlpha, Reports: 1},
		{Index: 1, Eps: b.sp.EpsBeta, Reports: 1},
	}
}

// Collect simulates users under the baseline protocol into two groups,
// V′(α) then V′(β). Byzantine users poison both report sets (the
// honest-threat assumption of §IV).
func (b *Baseline) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	return b.collect(r, values, adv, gamma, false)
}

// GamedCollect simulates the §V attack on the baseline: Byzantine users
// report *honestly* on the probing budget ε_α (hiding from EMF) and send
// poison only on ε_β.
func (b *Baseline) GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	return b.collect(r, values, adv, gamma, true)
}

func (b *Baseline) collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64, gamed bool) (*Collection, error) {
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: gamma must lie in [0,1)", ErrDomain)
	}
	if adv == nil {
		adv = attack.None{}
	}
	n := len(values)
	nByz := int(math.Round(gamma * float64(n)))
	perm := r.Perm(n)
	alpha := make([]float64, 0, n)
	beta := make([]float64, 0, n)
	envA := attack.EnvFor(b.mechAlpha, b.sp.OPrime)
	envB := attack.EnvFor(b.mechBeta, b.sp.OPrime)
	for i, u := range perm {
		byz := i < nByz
		if byz && !gamed {
			alpha = append(alpha, adv.Poison(r, envA, 1)...)
		} else {
			alpha = append(alpha, b.mechAlpha.Perturb(r, values[u]))
		}
		if byz {
			beta = append(beta, adv.Poison(r, envB, 1)...)
		} else {
			beta = append(beta, b.mechBeta.Perturb(r, values[u]))
		}
	}
	return &Collection{Groups: [][]float64{alpha, beta}}, nil
}

// Estimate probes Byzantine features on V′(α) and estimates the mean from
// V′(β) per §IV-D: since the α and β poison sets form a unified attack,
// their deviation from O is equal, so M_α estimated from ŷ(α) — rescaled
// between the two output domains — substitutes for M_β in Eq. 12.
func (b *Baseline) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != 2 {
		return nil, badCollection("baseline estimation expects two groups (alpha, beta)")
	}
	alpha, beta := col.Groups[0], col.Groups[1]
	if len(alpha) == 0 || len(beta) == 0 {
		return nil, badCollection("baseline collection is empty")
	}
	din, dprime := emf.BucketCounts(len(alpha), b.mechAlpha.C())
	m, err := emf.BuildNumericCached(b.mechAlpha, din, dprime)
	if err != nil {
		return nil, err
	}
	return b.estimateFromCounts(m, m.Counts(alpha), float64(len(beta)), stats.Sum(beta))
}

// EstimateHist runs the baseline collector from the histogram sufficient
// statistic: Counts[0] is the ε_α report histogram (EMF probing reads only
// bucket counts), Counts[1]/Sums[1] carry the ε_β report count and exact
// sum that Eq. 12 needs.
func (b *Baseline) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if hc == nil || len(hc.Counts) != 2 || hc.Sums == nil || len(hc.Sums) != 2 {
		return nil, badCollection("baseline estimation expects alpha and beta histograms with sums")
	}
	dprime := len(hc.Counts[0])
	if dprime < 1 {
		return nil, badCollection("baseline alpha histogram is empty")
	}
	m, err := emf.BuildNumericCached(b.mechAlpha, emf.InputBuckets(dprime, b.mechAlpha.C()), dprime)
	if err != nil {
		return nil, err
	}
	nBeta := stats.Sum(hc.Counts[1])
	if nBeta <= 0 {
		return nil, badCollection("baseline beta histogram holds no reports")
	}
	return b.estimateFromCounts(m, hc.Counts[0], nBeta, hc.Sums[1])
}

// estimateFromCounts is the shared collector core: probe on the ε_α
// histogram, remove the rescaled poison mass from the ε_β mean.
func (b *Baseline) estimateFromCounts(m *emf.Matrix, counts []float64, nBeta, sumBeta float64) (*Result, error) {
	cfg := emf.Config{Tol: emf.PaperTol(b.sp.EpsAlpha), MaxIter: b.sp.EMFMaxIter, Accelerate: true}
	probe, err := emf.ProbeSide(m, counts, b.sp.OPrime, cfg)
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(probe.Left, probe.Right)
	side := probe.Side
	poison := poisonSet(m, side, b.sp.OPrime)
	res := probe.Chosen()
	switch b.scheme {
	case SchemeEMFStar:
		// The probe's chosen fit solved the same poison layout; seed the
		// constrained re-run from it.
		cfg.Init = res
		res, err = emf.RunConstrained(m, counts, poison, res.Gamma(), cfg)
	case SchemeCEMFStar:
		res, err = emf.RunConcentrated(m, counts, res, res.Gamma(), b.sp.suppressFactor(), cfg)
	}
	if err != nil {
		return nil, err
	}
	if res != probe.Chosen() {
		diag.observe(res)
	}
	gamma := res.Gamma()
	// M_α lives on the ε_α output domain [−C_α, C_α]; the unified-attack
	// assumption equates the *deviation impact*, so rescale the poison mean
	// into the ε_β domain before subtracting (M_α = M_β in the paper's
	// shared-domain formulation).
	poisonMeanAlpha := emf.PoisonMean(m, res)
	scale := b.mechBeta.C() / b.mechAlpha.C()
	poisonMeanBeta := stats.Clamp(poisonMeanAlpha*scale, -b.mechBeta.C(), b.mechBeta.C())

	mHat := poisonMass(gamma, nBeta)
	mean := (sumBeta - mHat*poisonMeanBeta) / (nBeta - mHat)
	est := &Result{
		Task:          TaskBaseline,
		Mean:          stats.Clamp(mean, -1, 1),
		PoisonedRight: side == emf.Right,
		Gamma:         gamma,
		GroupMeans:    []float64{stats.Clamp(mean, -1, 1)},
		GroupGammas:   []float64{gamma},
		Weights:       []float64{1},
		NHat:          []float64{nBeta - mHat},
	}
	diag.apply(est)
	return est, nil
}

// Run is Collect followed by Estimate.
func (b *Baseline) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return collectAndEstimate(b, r, values, adv, gamma)
}
