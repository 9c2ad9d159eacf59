package core

import (
	"context"
	"math"

	"repro/internal/emf"
	"repro/internal/stats"
)

// HistCollection is the sufficient statistic of a collection for the
// estimator: one output-bucket histogram per group (at whatever resolution
// d′ the histogram was accumulated) plus the exact per-group report sums.
// The streaming engine (internal/stream) maintains these incrementally so
// an estimate never rescans raw reports; Estimate itself reduces a raw
// Collection to the same statistic. Feeding either path the same reports
// at the same d′ yields identical estimates (see TestEstimateHistEquivalence).
type HistCollection struct {
	// Counts[t][i] is the number of group-t reports in output bucket i.
	// len(Counts[t]) fixes the group's d′; the input resolution follows via
	// emf.InputBuckets exactly as in the batch path.
	Counts [][]float64
	// Sums[t] is Σ of group t's raw report values. The mean pipeline uses
	// it for the poison-mass correction (Eq. 13); the SW pipeline reads the
	// mean off the reconstructed histogram and ignores it.
	Sums []float64
}

// validate checks the collection shape against a group count.
func (hc *HistCollection) validate(h int) error {
	if hc == nil || len(hc.Counts) != h {
		return badCollection("histogram collection does not match group layout")
	}
	if hc.Sums != nil && len(hc.Sums) != h {
		return badCollection("histogram sums do not match group layout")
	}
	return nil
}

// sum returns Sums[t], or 0 when sums were not provided.
func (hc *HistCollection) sum(t int) float64 {
	if hc.Sums == nil {
		return 0
	}
	return hc.Sums[t]
}

// EstimateHist runs the collector pipeline (stages 3–5) directly from
// per-group histograms — the streaming entry point. The transform matrix
// resolution is derived from each histogram's length via emf.InputBuckets,
// so a histogram accumulated at the d′ that BucketCounts would have picked
// reproduces Estimate on the same reports exactly. Under AutoOPrime the
// Theorem 2 trimmed mean is computed from the smallest-budget histogram
// (bucket centers stand in for the sorted raw reports), the only place the
// two paths can differ — by at most one bucket width. A warm state
// attached to ctx seeds the solver runs — the streaming engine's epoch
// re-estimation path (tolerance-equivalent to the cold run; see WarmState).
func (d *DAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := d.H()
	if err := hc.validate(h); err != nil {
		return nil, err
	}
	// The mean pipeline needs the report sums (Eq. 13); without them every
	// group mean would silently collapse toward 0. Only the SW path, which
	// reads means off the reconstructed histogram, may omit them.
	if hc.Sums == nil {
		return nil, badCollection("mean estimation requires report sums")
	}
	matrices := make([]*emf.Matrix, h)
	ns := make([]float64, h)
	sums := make([]float64, h)
	for t := 0; t < h; t++ {
		dprime := len(hc.Counts[t])
		if dprime < 1 {
			return nil, badCollection("group %d histogram is empty", t)
		}
		m, err := emf.BuildNumericCached(d.mechs[t], emf.InputBuckets(dprime, d.mechs[t].C()), dprime)
		if err != nil {
			return nil, err
		}
		matrices[t] = m
		ns[t] = stats.Sum(hc.Counts[t])
		if ns[t] <= 0 {
			return nil, badCollection("group %d holds no reports", t)
		}
		sums[t] = hc.sum(t)
	}
	return d.estimateFromCounts(matrices, hc.Counts, sums, ns, nil, WarmFromContext(ctx))
}

// outCenters returns the output-bucket midpoints of a transform matrix —
// the value each histogram count stands in for.
func outCenters(m *emf.Matrix) []float64 {
	c := make([]float64, m.DPrime)
	for i := range c {
		c[i] = m.OutCenter(i)
	}
	return c
}

// PessimisticOHist is Theorem 2's pessimistic mean over a histogram: the
// largest (smallest, when the suspected poisoned side is left)
// ⌈γsup·N⌉ reports are removed — fractionally within the boundary bucket —
// and the remaining mass is averaged at bucket centers. It matches
// PessimisticO on the underlying reports up to one bucket width, without
// needing the sorted raw values the streaming collector no longer stores.
func PessimisticOHist(counts []float64, centers []float64, gammaSup float64, poisonedRight bool) float64 {
	n := stats.Sum(counts)
	if n <= 0 {
		return 0
	}
	if gammaSup <= 0 {
		gammaSup = 0.5
	}
	if gammaSup >= 1 {
		gammaSup = 1 - 1e-9
	}
	cut := math.Ceil(gammaSup * n)
	if cut >= n {
		cut = n - 1
	}
	keep := n - cut
	var sum, kept float64
	if poisonedRight {
		for i := 0; i < len(counts) && kept < keep; i++ {
			c := math.Min(counts[i], keep-kept)
			sum += c * centers[i]
			kept += c
		}
	} else {
		for i := len(counts) - 1; i >= 0 && kept < keep; i-- {
			c := math.Min(counts[i], keep-kept)
			sum += c * centers[i]
			kept += c
		}
	}
	if kept <= 0 {
		return 0
	}
	return sum / kept
}

// trimHistTop removes the top frac of a histogram's mass (fractionally
// within the boundary bucket) — the histogram analogue of discarding the
// largest quantile of raw reports before the SW pessimistic-O′ EMS fit.
func trimHistTop(counts []float64, frac float64) []float64 {
	n := stats.Sum(counts)
	trimmed := append([]float64(nil), counts...)
	drop := frac * n
	for i := len(trimmed) - 1; i >= 0 && drop > 0; i-- {
		c := math.Min(trimmed[i], drop)
		trimmed[i] -= c
		drop -= c
	}
	return trimmed
}

// EstimateHist runs the SW collector pipeline directly from per-group
// histograms. The §V-D pessimistic O′ (trimmed EMS at the smallest budget)
// trims histogram mass instead of sorted raw reports; everything else is
// the batch path fed by the same sufficient statistic. Sums are not used —
// SW means come from the reconstructed input histogram. A warm state
// attached to ctx seeds the solver runs (tolerance-equivalent; see
// WarmState).
func (d *SWDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	warm := WarmFromContext(ctx)
	h := d.H()
	if err := hc.validate(h); err != nil {
		return nil, err
	}
	matrices := make([]*emf.Matrix, h)
	ns := make([]float64, h)
	for t := 0; t < h; t++ {
		dprime := len(hc.Counts[t])
		if dprime < 1 {
			return nil, badCollection("group %d histogram is empty", t)
		}
		c := d.mechs[t].OutputDomain().Width()
		m, err := emf.BuildNumericCached(d.mechs[t], emf.InputBuckets(dprime, c), dprime)
		if err != nil {
			return nil, err
		}
		matrices[t] = m
		ns[t] = stats.Sum(hc.Counts[t])
		if ns[t] <= 0 {
			return nil, badCollection("group %d holds no reports", t)
		}
	}
	oPrime, oFit, err := d.pessimisticOHist(matrices[h-1], hc.Counts[h-1], warm.oSeed())
	if err != nil {
		return nil, err
	}
	return d.estimateFromCounts(matrices, hc.Counts, ns, oPrime, oFit, warm)
}

// pessimisticOHist estimates O′ for SW from a histogram by removing the
// top TrimFrac of the mass and running plain EMS on the rest. init
// optionally seeds the EMS fit, which is returned for the warm state.
func (d *SWDAP) pessimisticOHist(m *emf.Matrix, counts []float64, init *emf.Result) (float64, *emf.Result, error) {
	frac := d.sp.TrimFrac
	if frac <= 0 {
		frac = 0.5
	}
	trimmed := trimHistTop(counts, frac)
	res, err := emf.RunConstrained(m, trimmed, nil, 0,
		emf.Config{Smooth: true, MaxIter: d.sp.EMFMaxIter, Accelerate: true, Init: init})
	if err != nil {
		return 0, nil, err
	}
	return stats.Clamp(stats.HistMean(res.X, m.InCenters()), 0, 1), res, nil
}
