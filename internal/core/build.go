package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/ldp"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Result is the unified collector output of every task kind. The fields a
// task does not produce stay at their zero value: mean/variance tasks fill
// Mean (and Variance/SecondMoment), distribution tasks add XHat, frequency
// tasks fill Freqs/PoisonCats instead of Mean. The per-group diagnostics
// (GroupMeans, GroupGammas, Weights, NHat) and the probed threat features
// (Gamma, PoisonedRight) are common to all protocol tasks.
type Result struct {
	// Task is the producing spec's task kind.
	Task TaskKind `json:"task"`
	// Mean is the aggregated mean estimate in the protocol's unit domain.
	Mean float64 `json:"mean"`
	// Variance and SecondMoment are filled by TaskVariance.
	Variance     float64 `json:"variance,omitempty"`
	SecondMoment float64 `json:"second_moment,omitempty"`
	// Freqs is the frequency estimate (TaskFrequency; sums to one).
	Freqs []float64 `json:"freqs,omitempty"`
	// XHat is the reconstructed input histogram (TaskDistribution;
	// normalized).
	XHat []float64 `json:"xhat,omitempty"`
	// Gamma is the probed Byzantine proportion γ̂.
	Gamma float64 `json:"gamma"`
	// PoisonedRight is the probed poisoned side (numeric tasks).
	PoisonedRight bool `json:"poisoned_right"`
	// PoisonCats is the probed poisoned category set (TaskFrequency).
	PoisonCats []int `json:"poison_cats,omitempty"`
	// OPrime is the pessimistic mean initialization that anchored the
	// poison sets.
	OPrime float64 `json:"oprime,omitempty"`
	// Per-group diagnostics.
	GroupMeans  []float64   `json:"group_means,omitempty"`
	GroupGammas []float64   `json:"group_gammas,omitempty"`
	GroupFreqs  [][]float64 `json:"group_freqs,omitempty"`
	Weights     []float64   `json:"weights,omitempty"`
	NHat        []float64   `json:"nhat,omitempty"`
	// VarMin is Theorem 6's minimal worst-case variance bound.
	VarMin float64 `json:"var_min,omitempty"`
	// Solver telemetry: EMFIters is the total EM-map evaluations across
	// every solver run of the estimate (probes included), EMFRestarts the
	// SQUAREM extrapolations rejected by the monotonicity safeguard, and
	// WarmHits the runs seeded from a previous fit.
	EMFIters    int `json:"emf_iters,omitempty"`
	EMFRestarts int `json:"emf_restarts,omitempty"`
	WarmHits    int `json:"warm_hits,omitempty"`
	// Converged reports whether every EM fit met its tolerance before
	// MaxIter; false means at least one group silently returned the
	// MaxIter iterate and the estimate may be under-converged.
	Converged bool `json:"converged"`
	// Warm carries the estimate's EM fits for seeding a subsequent
	// estimate over the same layout (attach it to the next call's context
	// with WithWarm). Never serialized.
	Warm *WarmState `json:"-"`
}

// ConfidenceInterval returns a two-sided normal-approximation interval
// around the aggregated mean using Theorem 6's worst-case variance bound.
// level is the coverage (e.g. 0.95). Because VarMin is a worst-case
// bound, the interval is conservative; without a bound (VarMin = 0) it
// collapses to the mean.
func (r *Result) ConfidenceInterval(level float64) (lo, hi float64) {
	if level <= 0 || level >= 1 || r.VarMin <= 0 {
		return r.Mean, r.Mean
	}
	half := zScore(level) * math.Sqrt(r.VarMin)
	return r.Mean - half, r.Mean + half
}

// Estimator is the single estimation surface every task kind implements:
// batch estimation over a raw Collection and histogram estimation over
// the streaming sufficient statistic. Build returns one for any valid
// Spec.
type Estimator interface {
	// Spec returns the normalized spec the estimator was built from.
	Spec() Spec
	// Groups returns the protocol group layout (one synthetic full-budget
	// group for defense comparators; 2h groups for variance — the mean
	// half followed by the moment half; alpha and beta for the baseline).
	Groups() []Group
	// Estimate runs the collector pipeline over raw per-group reports.
	Estimate(ctx context.Context, col *Collection) (*Result, error)
	// EstimateHist runs the collector pipeline over per-group output
	// histograms (HistCollection), the entry point of the streaming
	// engine. Estimators that need raw reports (defense comparators)
	// reject it with ErrBadSpec.
	EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error)
}

// Streamable marks estimators that can back a stream tenant: reports are
// ingestible into per-group output histograms over a known domain.
type Streamable interface {
	Estimator
	// OutputDomain returns group t's report domain (the perturbation
	// output interval, or [0,K) for categorical tasks).
	OutputDomain(t int) ldp.Domain
}

// Runner is the simulation entry point shared by the numeric task kinds:
// collect from values under an adversary, then estimate.
type Runner interface {
	Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error)
}

// collectAndEstimate is the Runner behind every numeric task: Collect,
// then Estimate.
func collectAndEstimate(e interface {
	Collector
	Estimator
}, r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := e.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return e.Estimate(context.Background(), col)
}

// CatRunner is the categorical simulation entry point.
type CatRunner interface {
	RunCats(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error)
}

// CatAdvRunner is the categorical simulation entry point under a
// registry-selected adversary (attack.New): Byzantine users inject the
// categories the adversary emits instead of a fixed uniform poison set.
type CatAdvRunner interface {
	RunCatsAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error)
}

// Collector is implemented by estimators whose user side can be simulated
// into a raw Collection (the input of Estimate).
type Collector interface {
	Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error)
}

// Build validates sp and returns its estimator. This is the single
// construction path behind batch estimation, stream tenants, the wire API
// and the CLIs; adding a mechanism or task kind plugs in here once and
// appears everywhere.
func Build(sp Spec) (Estimator, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sp = sp.Normalize()
	var (
		est Estimator
		err error
	)
	switch {
	case sp.Defense != nil:
		est, err = newDefenseEstimator(sp)
	case sp.Task == TaskMean:
		est, err = newDAP(sp)
	case sp.Task == TaskDistribution:
		est, err = newSWDAP(sp)
	case sp.Task == TaskFrequency:
		est, err = newFreqDAP(sp)
	case sp.Task == TaskVariance:
		est, err = newVarianceEstimator(sp)
	case sp.Task == TaskBaseline:
		est, err = newBaseline(sp)
	default:
		return nil, badSpec("unknown task %q", sp.Task)
	}
	if err != nil {
		return nil, err
	}
	return est, nil
}

// ctxErr reports a done context. Estimators check it once at entry; the
// per-group EM fits below are too short-lived to interrupt mid-flight.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// --- variance via split populations ---

// varianceEstimator generalizes DAP beyond the mean (§V-D, "DAP is not
// limited to mean estimation"): it estimates the variance of the normal
// users' values under the same threat model. The user population is
// split in half; one half runs the mean pipeline on v, the other on the
// transformed value 2v²−1 ∈ [−1,1] (so E[2v²−1] = 2E[v²]−1), each half
// under its own full-budget run of the same DAP, and Var = E[v²] − E[v]².
// Every user still reports exactly one statistic and spends exactly ε.
type varianceEstimator struct {
	d *DAP // runs the first h groups on E[v], the last h on E[2v²−1]
}

func newVarianceEstimator(sp Spec) (*varianceEstimator, error) {
	d, err := newDAP(sp)
	if err != nil {
		return nil, err
	}
	return &varianceEstimator{d: d}, nil
}

func (e *varianceEstimator) Spec() Spec { return e.d.sp }

// Groups returns the 2h-group layout: the mean half followed by the
// moment half.
func (e *varianceEstimator) Groups() []Group {
	return append(e.d.Groups(), e.d.Groups()...)
}

// Collect splits the users into random disjoint halves (each contributes
// one statistic and spends exactly ε), collects the mean half on v and
// the moment half on 2v²−1, and concatenates the group reports.
func (e *varianceEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	if len(values) < 4 {
		return nil, badCollection("variance estimation needs at least four users")
	}
	perm := rng.SampleWithoutReplacement(r, len(values), len(values))
	half := len(values) / 2
	meanVals := make([]float64, 0, half)
	momentVals := make([]float64, 0, len(values)-half)
	for i, u := range perm {
		if i < half {
			meanVals = append(meanVals, values[u])
		} else {
			v := values[u]
			momentVals = append(momentVals, 2*v*v-1)
		}
	}
	c1, err := e.d.Collect(r, meanVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	c2, err := e.d.Collect(r, momentVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	return &Collection{
		Groups:   append(c1.Groups, c2.Groups...),
		ByzCount: c1.ByzCount + c2.ByzCount,
	}, nil
}

func (e *varianceEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.d.H()
	if col == nil || len(col.Groups) != 2*h {
		return nil, badCollection("variance estimation expects %d groups (mean half then moment half)", 2*h)
	}
	m1, err := e.d.Estimate(withSubWarm(ctx, 0), &Collection{Groups: col.Groups[:h]})
	if err != nil {
		return nil, err
	}
	m2, err := e.d.Estimate(withSubWarm(ctx, 1), &Collection{Groups: col.Groups[h:]})
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

func (e *varianceEstimator) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.d.H()
	if hc == nil || len(hc.Counts) != 2*h || hc.Sums == nil || len(hc.Sums) != 2*h {
		return nil, badCollection("variance estimation expects %d group histograms with sums", 2*h)
	}
	m1, err := e.d.EstimateHist(withSubWarm(ctx, 0), &HistCollection{Counts: hc.Counts[:h], Sums: hc.Sums[:h]})
	if err != nil {
		return nil, err
	}
	m2, err := e.d.EstimateHist(withSubWarm(ctx, 1), &HistCollection{Counts: hc.Counts[h:], Sums: hc.Sums[h:]})
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

func (e *varianceEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return collectAndEstimate(e, r, values, adv, gamma)
}

// varianceResult combines the two half estimates: Var = E[v²] − E[v]²
// with E[v²] = (E[2v²−1]+1)/2. Group diagnostics concatenate the halves;
// solver telemetry sums and the warm states compose. The first moment,
// γ̂, poisoned side and VarMin are the mean half's.
func varianceResult(m1, m2 *Result) *Result {
	res := *m1
	res.Task = TaskVariance
	m2sq := stats.Clamp((m2.Mean+1)/2, 0, 1)
	res.SecondMoment = m2sq
	res.Variance = math.Max(0, m2sq-m1.Mean*m1.Mean)
	res.GroupMeans = append(append([]float64(nil), m1.GroupMeans...), m2.GroupMeans...)
	res.GroupGammas = append(append([]float64(nil), m1.GroupGammas...), m2.GroupGammas...)
	res.Weights = append(append([]float64(nil), m1.Weights...), m2.Weights...)
	res.NHat = append(append([]float64(nil), m1.NHat...), m2.NHat...)
	res.EMFIters = m1.EMFIters + m2.EMFIters
	res.EMFRestarts = m1.EMFRestarts + m2.EMFRestarts
	res.WarmHits = m1.WarmHits + m2.WarmHits
	res.Converged = m1.Converged && m2.Converged
	res.Warm = &WarmState{sub: []*WarmState{m1.Warm, m2.Warm}}
	return &res
}

// --- comparator defenses ---

type defenseEstimator struct {
	sp    Spec
	def   defense.Defense
	right bool
}

func newDefenseEstimator(sp Spec) (*defenseEstimator, error) {
	def, err := defense.New(*sp.Defense)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return &defenseEstimator{
		sp:    sp,
		def:   def,
		right: sp.Defense.Side != "left",
	}, nil
}

// defenseSeed derives the rng seed for a randomized defense (kmeans,
// iforest) from the reports themselves: identical input gives identical
// output, independent of call order or concurrency, with no shared state.
func defenseSeed(reports []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	h := uint64(offset)
	h = (h ^ uint64(len(reports))) * prime
	for _, v := range reports {
		b := math.Float64bits(v)
		h = (h ^ (b & 0xffffffff)) * prime
		h = (h ^ (b >> 32)) * prime
	}
	return h
}

func (e *defenseEstimator) Spec() Spec { return e.sp }

// Groups returns the single full-budget group the comparators operate on.
func (e *defenseEstimator) Groups() []Group {
	return []Group{{Index: 0, Eps: e.sp.Eps, Reports: 1}}
}

func (e *defenseEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != 1 || len(col.Groups[0]) == 0 {
		return nil, badCollection("defense comparators expect one non-empty group")
	}
	mean, err := e.def.Estimate(rng.New(defenseSeed(col.Groups[0])), col.Groups[0], e.right)
	if err != nil {
		return nil, err
	}
	mean = stats.Clamp(mean, -1, 1)
	return &Result{
		Task:          TaskMean,
		Mean:          mean,
		PoisonedRight: e.right,
		GroupMeans:    []float64{mean},
		Weights:       []float64{1},
		// No iterative solver ran (EMFKMeans runs its own internally and
		// reports through its return value), so nothing was left
		// under-converged.
		Converged: true,
	}, nil
}

// EstimateHist is rejected: the comparators are defined on raw reports
// (subset sampling, order statistics), which the histogram statistic
// cannot reproduce.
func (e *defenseEstimator) EstimateHist(context.Context, *HistCollection) (*Result, error) {
	return nil, fmt.Errorf("%w: defense %q needs raw reports and cannot estimate from histograms",
		ErrBadSpec, e.def.Name())
}

func (e *defenseEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return collectAndEstimate(e, r, values, adv, gamma)
}

func (e *defenseEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	reports, err := CollectPM(r, values, e.sp.Eps, adv, gamma, e.sp.OPrime)
	if err != nil {
		return nil, err
	}
	return &Collection{Groups: [][]float64{reports}}, nil
}
