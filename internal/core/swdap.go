package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/sw"
	"repro/internal/stats"
)

// SWDAP is the Square Wave instantiation of the protocol (§V-D) — the
// Estimator Build returns for TaskDistribution: inputs live in [0,1],
// perturbation uses SW, reconstruction uses EMS (EM with smoothing), and
// the mean is read off the reconstructed input histogram rather than the
// report sum. The spec's TrimFrac is the fraction removed from the
// poisoned side before the pessimistic O′ estimation (§V-D prescribes
// 50%, selected when it is 0).
type SWDAP struct {
	protocol
	mechs []*sw.Mechanism
}

// newSWDAP precomputes the group mechanisms of a validated, normalized
// spec.
func newSWDAP(sp Spec) (*SWDAP, error) {
	d := &SWDAP{protocol: newProtocol(sp)}
	d.mechs = make([]*sw.Mechanism, d.H())
	for t, g := range d.groups {
		mech, err := sw.New(g.Eps)
		if err != nil {
			return nil, fmt.Errorf("core: sw group %d: %w", t, err)
		}
		d.mechs[t] = mech
	}
	return d, nil
}

// Mechanism returns group t's SW instance.
func (d *SWDAP) Mechanism(t int) *sw.Mechanism { return d.mechs[t] }

// OutputDomain returns group t's report domain.
func (d *SWDAP) OutputDomain(t int) ldp.Domain { return d.mechs[t].OutputDomain() }

// Collect simulates the user side over values in [0,1].
func (d *SWDAP) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	n := len(values)
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
	perm := r.Perm(n)
	isByz := make([]bool, n)
	for _, u := range perm[:nByz] {
		isByz[u] = true
	}
	assign := r.Perm(n)
	col := &Collection{Groups: make([][]float64, d.H()), ByzCount: nByz}
	h := d.H()
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.EnvFor(mech, 0.5) // O anchored mid-domain for ranges
		env.Group = t
		reports := make([]float64, 0, (hi-lo)*g.Reports)
		for _, u := range assign[lo:hi] {
			if isByz[u] {
				reports = append(reports, adv.Poison(r, env, g.Reports)...)
			} else {
				for k := 0; k < g.Reports; k++ {
					reports = append(reports, mech.Perturb(r, values[u]))
				}
			}
		}
		col.Groups[t] = reports
	}
	return col, nil
}

// Estimate runs the collector side over an SW collection. Its result
// carries the reconstructed input distribution in XHat (normalized; the
// Fig. 8(a) distribution-estimation output) and the trimmed-EMS
// pessimistic mean in OPrime. A warm state attached to ctx seeds the
// solver runs (tolerance-equivalent to the cold run; see WarmState).
func (d *SWDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	warm := WarmFromContext(ctx)
	h := d.H()
	if col == nil || len(col.Groups) != h {
		return nil, badCollection("collection does not match group layout")
	}
	matrices := make([]*emf.Matrix, h)
	counts := make([][]float64, h)
	ns := make([]float64, h)
	for t := 0; t < h; t++ {
		if len(col.Groups[t]) == 0 {
			return nil, badCollection("group %d holds no reports", t)
		}
		c := d.mechs[t].OutputDomain().Width() // SW analogue of 2C/2
		din, dprime := emf.BucketCounts(len(col.Groups[t]), c)
		m, err := emf.BuildNumericCached(d.mechs[t], din, dprime)
		if err != nil {
			return nil, err
		}
		matrices[t] = m
		counts[t] = m.Counts(col.Groups[t])
		ns[t] = float64(len(col.Groups[t]))
	}

	// Pessimistic O′ via trimmed EMS on the smallest-budget group (§V-D).
	oPrime, oFit, err := d.pessimisticO(matrices[h-1], col.Groups[h-1], warm.oSeed())
	if err != nil {
		return nil, err
	}
	return d.estimateFromCounts(matrices, counts, ns, oPrime, oFit, warm)
}

// estimateFromCounts runs the SW collector stages over the per-group
// sufficient statistic with a precomputed pessimistic O′ (trimmed from raw
// reports by Estimate, from histogram mass by EstimateHist). oFit is the
// EMS fit that produced O′ (carried into the warm state and telemetry);
// warm optionally seeds every solver run.
func (d *SWDAP) estimateFromCounts(matrices []*emf.Matrix, counts [][]float64, ns []float64, oPrime float64, oFit *emf.Result, warm *WarmState) (*Result, error) {
	h := d.H()
	var diag emfDiag
	diag.observe(oFit)
	probe, err := emf.ProbeSideInit(matrices[h-1], counts[h-1], oPrime, d.cfg(h-1),
		warm.probeLeft(), warm.probeRight())
	if err != nil {
		return nil, err
	}
	diag.observe(probe.Left, probe.Right)
	side := probe.Side
	gammaGlobal := probe.Chosen().Gamma()

	est := &Result{
		Task:          TaskDistribution,
		PoisonedRight: side == emf.Right,
		Gamma:         gammaGlobal,
		GroupMeans:    make([]float64, h),
		GroupGammas:   make([]float64, h),
		NHat:          make([]float64, h),
		OPrime:        oPrime,
	}
	b := make([]float64, h)
	bases := make([]*emf.Result, h)
	finals := make([]*emf.Result, h)
	var xAgg []float64
	for t := 0; t < h; t++ {
		m := matrices[t]
		wBase, wFinal := warm.seeds(t, h, probe.Chosen())
		res, base, gammaT, err := d.fitGroup(m, counts[t], poisonSet(m, side, oPrime), gammaGlobal, d.cfg(t), wBase, wFinal)
		if err != nil {
			return nil, err
		}
		bases[t], finals[t] = base, res
		diag.observe(res)
		if base != nil && base != res {
			diag.observe(base)
		}
		// SW mean comes from the reconstructed input histogram.
		mean := stats.HistMean(res.X, m.InCenters())
		est.GroupMeans[t] = stats.Clamp(mean, 0, 1)
		est.GroupGammas[t] = gammaT
		nt := ns[t]
		mHat := poisonMass(gammaT, nt)
		est.NHat[t] = (nt - mHat) * d.groups[t].Eps / d.sp.Eps
		b[t] = est.NHat[t] * d.mechs[t].WorstCaseVar()
		// Aggregate the distribution estimate from the largest-budget group
		// histogram resolution by accumulating normalized x̂ weighted by n̂.
		xn := stats.Normalize(res.X)
		if xAgg == nil {
			xAgg = make([]float64, len(xn))
		}
		if len(xn) == len(xAgg) {
			for k := range xn {
				xAgg[k] += est.NHat[t] * xn[k]
			}
		}
	}
	w, err := OptimalWeights(b, est.NHat, d.weights)
	if err != nil {
		return nil, err
	}
	est.Weights = w
	est.VarMin = MinVariance(b, est.NHat)
	est.Mean = Aggregate(est.GroupMeans, w)
	est.XHat = stats.Normalize(xAgg)
	diag.apply(est)
	est.Warm = &WarmState{probeL: probe.Left, probeR: probe.Right, oFit: oFit, bases: bases, finals: finals}
	return est, nil
}

// Run is Collect followed by Estimate.
func (d *SWDAP) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return collectAndEstimate(d, r, values, adv, gamma)
}

// pessimisticO estimates O′ for SW by removing the top TrimFrac of the
// reports and running plain EMS on the rest (§V-D's analogue of
// Theorem 2). init optionally seeds the EMS fit; the fit is returned for
// the next estimate's warm state.
func (d *SWDAP) pessimisticO(m *emf.Matrix, reports []float64, init *emf.Result) (float64, *emf.Result, error) {
	frac := d.sp.TrimFrac
	if frac <= 0 {
		frac = 0.5
	}
	trimmed := make([]float64, len(reports))
	copy(trimmed, reports)
	// Remove the largest frac of reports (pessimistic against a right-side
	// attack, mirroring Theorem 2's default orientation).
	mean := stats.Quantile(trimmed, 1-frac)
	kept := trimmed[:0]
	for _, v := range trimmed {
		if v <= mean {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		kept = trimmed
	}
	counts := m.Counts(kept)
	res, err := emf.RunConstrained(m, counts, nil, 0,
		emf.Config{Smooth: true, MaxIter: d.sp.EMFMaxIter, Accelerate: true, Init: init})
	if err != nil {
		return 0, nil, err
	}
	return stats.Clamp(stats.HistMean(res.X, m.InCenters()), 0, 1), res, nil
}

// cfg is the shared EM controls with the EMS smoothing step.
func (d *SWDAP) cfg(t int) emf.Config {
	cfg := d.protocol.cfg(t)
	cfg.Smooth = true
	return cfg
}

// SWSingle reconstructs the input distribution from one single-budget SW
// collection — the Fig. 8(a) distribution-estimation experiment. Scheme
// selects the poison handling; SchemeOstrich-like behaviour (plain EMS,
// poison ignored) is obtained with IgnorePoison.
type SWSingle struct {
	Eps float64
	// Scheme selects EMF, EMF* or CEMF*.
	Scheme Scheme
	// IgnorePoison runs plain EMS with no poison components (the Ostrich
	// distribution baseline).
	IgnorePoison bool
	// EMFMaxIter caps EM iterations (0 selects the emf default).
	EMFMaxIter int
}

// Reconstruct returns the normalized input histogram estimate and the
// bucket centers.
func (s *SWSingle) Reconstruct(reports []float64) (xhat, centers []float64, err error) {
	mech, err := sw.New(s.Eps)
	if err != nil {
		return nil, nil, err
	}
	din, dprime := emf.BucketCounts(len(reports), mech.OutputDomain().Width())
	m, err := emf.BuildNumericCached(mech, din, dprime)
	if err != nil {
		return nil, nil, err
	}
	counts := m.Counts(reports)
	cfg := emf.Config{Tol: emf.PaperTol(s.Eps), MaxIter: s.EMFMaxIter, Smooth: true, Accelerate: true}
	if s.IgnorePoison {
		res, err := emf.RunConstrained(m, counts, nil, 0, cfg)
		if err != nil {
			return nil, nil, err
		}
		return stats.Normalize(res.X), m.InCenters(), nil
	}
	probe, err := emf.ProbeSide(m, counts, 0.5, cfg)
	if err != nil {
		return nil, nil, err
	}
	poison := poisonSet(m, probe.Side, 0.5)
	res := probe.Chosen()
	switch s.Scheme {
	case SchemeEMFStar:
		cfg.Init = res
		res, err = emf.RunConstrained(m, counts, poison, res.Gamma(), cfg)
	case SchemeCEMFStar:
		res, err = emf.RunConcentrated(m, counts, res, res.Gamma(), 0.5, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return stats.Normalize(res.X), m.InCenters(), nil
}
