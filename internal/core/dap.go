package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/pm"
	"repro/internal/stats"
)

// protocol is the state the multi-group protocols share: the normalized
// spec they were built from, its parsed scheme and weight mode, and the
// group layout (§V-A). Build is the only constructor.
type protocol struct {
	sp      Spec
	scheme  Scheme
	weights WeightMode
	groups  []Group
}

// newProtocol lays out h = ⌈log₂(ε/ε₀)⌉+1 groups for a validated,
// normalized spec.
func newProtocol(sp Spec) protocol {
	scheme, _ := ParseScheme(sp.Scheme)
	weights, _ := ParseWeightMode(sp.Weights)
	groups := make([]Group, groupCount(sp.Eps, sp.Eps0))
	for t := range groups {
		groups[t] = Group{Index: t, Eps: sp.Eps / math.Pow(2, float64(t)), Reports: 1 << t}
	}
	return protocol{sp: sp, scheme: scheme, weights: weights, groups: groups}
}

// Spec returns the normalized spec the protocol was built from.
func (p *protocol) Spec() Spec { return p.sp }

// Groups returns the group layout.
func (p *protocol) Groups() []Group { return append([]Group(nil), p.groups...) }

// H returns the number of groups h = ⌈log₂(ε/ε₀)⌉+1.
func (p *protocol) H() int { return len(p.groups) }

// fitGroup applies the configured scheme to one group's counts over the
// given poison set, seeding the solver from warmBase (the plain-EMF base
// fit) and warmFinal (the scheme's final fit) when available; cfg is the
// group's unseeded EM controls. It returns the final fit, the base fit it
// derives from (nil under EMF*, which needs none: its γ comes from the
// smallest-budget probe) and the group's γ̂.
func (p *protocol) fitGroup(m *emf.Matrix, counts []float64, poison []int, gammaGlobal float64, cfg emf.Config, warmBase, warmFinal *emf.Result) (res, base *emf.Result, gammaT float64, err error) {
	seeded := cfg
	if p.scheme == SchemeEMFStar {
		seeded.Init = warmFinal
		res, err = emf.RunConstrained(m, counts, poison, gammaGlobal, seeded)
		return res, nil, gammaGlobal, err
	}
	seeded.Init = warmBase
	if base, err = emf.Run(m, counts, poison, seeded); err != nil {
		return nil, nil, 0, err
	}
	if p.scheme == SchemeCEMFStar {
		// RunConcentrated seeds its constrained re-run from base (the fit
		// on the current counts beats any previous estimate's).
		if res, err = emf.RunConcentrated(m, counts, base, gammaGlobal, p.sp.suppressFactor(), cfg); err != nil {
			return nil, nil, 0, err
		}
		return res, base, res.Gamma(), nil
	}
	return base, base, base.Gamma(), nil
}

// poisonSet returns the output buckets beyond oPrime on the probed side.
func poisonSet(m *emf.Matrix, side emf.Side, oPrime float64) []int {
	if side == emf.Right {
		return m.PoisonRight(oPrime)
	}
	return m.PoisonLeft(oPrime)
}

// poisonMass is m̂_t = γ̂_t·N_t, capped at 95% of the group's N_t reports
// so the normal-user remainder never vanishes.
func poisonMass(gamma, n float64) float64 {
	m := gamma * n
	if m > 0.95*n {
		m = 0.95 * n
	}
	return m
}

// cfg builds the EM iteration controls for group t, using the paper's
// termination threshold τ = 0.01·e^{ε_t} and the SQUAREM-accelerated
// solver (tolerance-equivalent to the plain loop, ~2–5× fewer E-steps).
func (p *protocol) cfg(t int) emf.Config {
	return emf.Config{Tol: emf.PaperTol(p.groups[t].Eps), MaxIter: p.sp.EMFMaxIter, Accelerate: true}
}

// Group describes one DAP group (§V-A).
type Group struct {
	// Index is the group position t−1 (0-based); budgets halve as it grows.
	Index int
	// Eps is the group budget ε_t = ε/2^Index.
	Eps float64
	// Reports is how many times each member perturbs and reports,
	// ε/ε_t = 2^Index, so every user spends exactly ε in total.
	Reports int
}

// DAP is the Differential Aggregation Protocol for mean estimation over
// the Piecewise Mechanism — the Estimator Build returns for TaskMean. Its
// spec's OPrime, AutoOPrime and GammaSup fix the pessimistic mean
// initialization (§IV-A, Theorem 2).
type DAP struct {
	protocol
	mechs []*pm.Mechanism
}

// newDAP precomputes the group mechanisms of a validated, normalized spec.
func newDAP(sp Spec) (*DAP, error) {
	d := &DAP{protocol: newProtocol(sp)}
	d.mechs = make([]*pm.Mechanism, d.H())
	for t, g := range d.groups {
		mech, err := pm.New(g.Eps)
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", t, err)
		}
		d.mechs[t] = mech
	}
	return d, nil
}

// Mechanism returns the PM instance of group t.
func (d *DAP) Mechanism(t int) *pm.Mechanism { return d.mechs[t] }

// OutputDomain returns group t's report domain.
func (d *DAP) OutputDomain(t int) ldp.Domain { return d.mechs[t].OutputDomain() }

// Collection holds the per-group reports received by the collector.
type Collection struct {
	// Groups contains the perturbed (or poison) reports of each group.
	Groups [][]float64
	// ByzCount is the number of Byzantine users (simulation ground truth,
	// not visible to the estimator).
	ByzCount int
}

// Collect simulates the user side of the protocol (§V-A stages 1–2): it
// shuffles users into h equal-sized groups, lets normal users perturb
// their value once per report slot with the group's budget, and lets the
// γ·N colluding Byzantine users send poison values from adv for every
// report slot. Byzantine users know each group's mechanism and output
// domain (the protocol is public) but not other users' data.
func (d *DAP) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
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
	// A single shuffle provides both the Byzantine subset and the group
	// assignment: group t holds users perm[t·n/h : (t+1)·n/h], and the
	// Byzantine users are the fixed ids {0..nByz−1}, met wherever the
	// shuffle scattered them. Byzantine users never report their own
	// values (Poison ignores them), so fixing their ids costs nothing,
	// while each group's Byzantine count stays multivariate hypergeometric
	// exactly as with the second O(N) permutation the seed version drew.
	perm := r.Perm(n)
	col := &Collection{Groups: make([][]float64, d.H()), ByzCount: nByz}
	h := d.H()
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.EnvFor(mech, d.sp.OPrime)
		env.Group = t
		reports := make([]float64, 0, (hi-lo)*g.Reports)
		for _, u := range perm[lo:hi] {
			if u < nByz {
				reports = append(reports, adv.Poison(r, env, g.Reports)...)
			} else {
				v := values[u]
				for k := 0; k < g.Reports; k++ {
					reports = append(reports, mech.Perturb(r, v))
				}
			}
		}
		col.Groups[t] = reports
	}
	return col, nil
}

// Estimate is the collector side of the protocol (§V stages 3–5): per
// group EMF probing, intra-group mean estimation with the configured
// scheme (Eq. 13), and variance-optimal inter-group aggregation
// (Algorithm 5). The poisoned side and γ̂ fed to EMF*/CEMF* come from the
// group with the smallest budget, where Theorem 3 makes EMF sharpest. A
// warm state attached to ctx (WithWarm) seeds the solver runs.
func (d *DAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := d.H()
	if col == nil || len(col.Groups) != h {
		return nil, badCollection("collection does not match group layout")
	}
	matrices := make([]*emf.Matrix, h)
	counts := make([][]float64, h)
	sums := make([]float64, h)
	ns := make([]float64, h)
	for t := 0; t < h; t++ {
		if len(col.Groups[t]) == 0 {
			return nil, badCollection("group %d holds no reports", t)
		}
	}
	if err := forEachGroup(h, func(t int) error {
		din, dprime := emf.BucketCounts(len(col.Groups[t]), d.mechs[t].C())
		m, err := emf.BuildNumericCached(d.mechs[t], din, dprime)
		if err != nil {
			return err
		}
		matrices[t] = m
		counts[t] = m.Counts(col.Groups[t])
		sums[t] = stats.Sum(col.Groups[t])
		ns[t] = float64(len(col.Groups[t]))
		return nil
	}); err != nil {
		return nil, err
	}
	return d.estimateFromCounts(matrices, counts, sums, ns, col.Groups[h-1], WarmFromContext(ctx))
}

// estimateFromCounts runs stages 3–5 over the per-group sufficient
// statistic (transform matrices, output histograms, report sums and
// counts). probeRaw carries the smallest-budget group's raw reports for
// Theorem 2's AutoOPrime trimmed mean; the histogram entry point passes
// nil and the trimmed mean falls back to bucket centers. warm optionally
// seeds every solver run from a previous estimate's fits.
func (d *DAP) estimateFromCounts(matrices []*emf.Matrix, counts [][]float64, sums, ns []float64, probeRaw []float64, warm *WarmState) (*Result, error) {
	h := d.H()
	var diag emfDiag
	// Stage 3: probe side and γ̂ at the smallest budget (group h−1).
	probeCfg := d.cfg(h - 1)
	oPrime := d.sp.OPrime
	probe, err := emf.ProbeSideInit(matrices[h-1], counts[h-1], oPrime, probeCfg,
		warm.probeLeft(), warm.probeRight())
	if err != nil {
		return nil, err
	}
	diag.observe(probe.Left, probe.Right)
	side := probe.Side
	if d.sp.AutoOPrime {
		// Theorem 2: trim the suspected-poisoned tail of the smallest-budget
		// reports (PM reports are unbiased, so their trimmed mean lives on
		// the input scale) and re-probe around the pessimistic O′. The
		// re-probe solves the same counts with shifted poison sets, so the
		// first probe's fits are its natural seeds.
		if probeRaw != nil {
			oPrime = PessimisticO(probeRaw, d.sp.GammaSup, side == emf.Right)
		} else {
			oPrime = PessimisticOHist(counts[h-1], outCenters(matrices[h-1]),
				d.sp.GammaSup, side == emf.Right)
		}
		oPrime = stats.Clamp(oPrime, -1, 1)
		if probe, err = emf.ProbeSideInit(matrices[h-1], counts[h-1], oPrime, probeCfg,
			probe.Left, probe.Right); err != nil {
			return nil, err
		}
		diag.observe(probe.Left, probe.Right)
		side = probe.Side
	}
	gammaGlobal := probe.Chosen().Gamma()

	est := &Result{
		Task:          TaskMean,
		PoisonedRight: side == emf.Right,
		Gamma:         gammaGlobal,
		GroupMeans:    make([]float64, h),
		GroupGammas:   make([]float64, h),
		Weights:       make([]float64, h),
		NHat:          make([]float64, h),
	}
	est.OPrime = oPrime
	b := make([]float64, h)
	bases := make([]*emf.Result, h)
	finals := make([]*emf.Result, h)
	diags := make([]emfDiag, h)
	// Stage 4: intra-group estimation. The h EM fits are independent (each
	// reads shared immutable inputs and writes only its own index), so they
	// run concurrently; the estimate is bit-identical to the sequential one.
	if err := forEachGroup(h, func(t int) error {
		wBase, wFinal := warm.seeds(t, h, probe.Chosen())
		res, base, gammaT, err := d.fitGroup(matrices[t], counts[t], poisonSet(matrices[t], side, oPrime),
			gammaGlobal, d.cfg(t), wBase, wFinal)
		if err != nil {
			return err
		}
		bases[t], finals[t] = base, res
		diags[t].observe(res)
		if base != nil && base != res {
			diags[t].observe(base)
		}
		nt := ns[t]
		mHat := poisonMass(gammaT, nt)
		poisonMean := emf.PoisonMean(matrices[t], res)
		mt := (sums[t] - mHat*poisonMean) / (nt - mHat)
		est.GroupMeans[t] = stats.Clamp(mt, -1, 1)
		est.GroupGammas[t] = gammaT
		// n̂_t = (N_t − m̂_t)·ε_t/ε converts report counts to user counts.
		est.NHat[t] = (nt - mHat) * d.groups[t].Eps / d.sp.Eps
		b[t] = est.NHat[t] * d.mechs[t].WorstCaseVar()
		return nil
	}); err != nil {
		return nil, err
	}
	for t := range diags {
		diag.merge(diags[t])
	}
	diag.apply(est)
	est.Warm = &WarmState{probeL: probe.Left, probeR: probe.Right, bases: bases, finals: finals}

	// Stage 5: inter-group aggregation (Algorithm 5).
	w, err := OptimalWeights(b, est.NHat, d.weights)
	if err != nil {
		return nil, err
	}
	est.Weights = w
	est.VarMin = MinVariance(b, est.NHat)
	est.Mean = Aggregate(est.GroupMeans, w)
	return est, nil
}

// Run is Collect followed by Estimate.
func (d *DAP) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return collectAndEstimate(d, r, values, adv, gamma)
}

// CollectPM gathers a plain single-group PM collection at budget eps with
// the same threat model — the collection that the Ostrich and Trimming
// baselines (and the k-means defense) operate on.
func CollectPM(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64, oPrime float64) ([]float64, error) {
	mech, err := pm.New(eps)
	if err != nil {
		return nil, err
	}
	if adv == nil {
		adv = attack.None{}
	}
	n := len(values)
	nByz := int(math.Round(gamma * float64(n)))
	env := attack.EnvFor(mech, oPrime)
	reports := make([]float64, 0, n)
	reports = append(reports, adv.Poison(r, env, nByz)...)
	// Only the Byzantine subset matters here (report order is irrelevant to
	// every consumer — counts, sums and trimming are order-invariant), so a
	// rejection-sampled index bitset replaces the full O(N) permutation the
	// seed version drew. At γ = 0 no selection randomness is consumed at all.
	byz := SampleSubset(r, n, nByz)
	for u, v := range values {
		if byz == nil || byz[u>>6]&(1<<(uint(u)&63)) == 0 {
			reports = append(reports, mech.Perturb(r, v))
		}
	}
	return reports, nil
}

// SampleSubset draws a uniform random k-subset of [0,n) as a bitset via
// rejection sampling (expected n·ln(n/(n−k)) draws, ≤ ~1.4k at the threat
// model's k ≤ n/2). It returns nil when k = 0.
func SampleSubset(r *rand.Rand, n, k int) []uint64 {
	if k <= 0 {
		return nil
	}
	set := make([]uint64, (n+63)/64)
	for c := 0; c < k; {
		j := uint(r.IntN(n))
		if set[j>>6]&(1<<(j&63)) == 0 {
			set[j>>6] |= 1 << (j & 63)
			c++
		}
	}
	return set
}
