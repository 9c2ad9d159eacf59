package core

import (
	"context"

	"repro/internal/emf"
)

// WarmState carries the EM fits of one completed estimate so a subsequent
// estimate over the same group layout can seed its solver runs from them
// (emf.Config.Init) instead of the uniform Algorithm 2 initialization.
// The streaming engine threads it across epoch rotations; the bench
// harness threads it across γ-grid neighbours. The state is opaque: fits
// are matched to runs by position, and every seed is shape-checked by the
// solver, so a WarmState from a different layout (or a nil one) simply
// degrades to a cold start. Warm-started estimates are
// tolerance-equivalent to cold ones — the same fixed point within the Tol
// rule — not bit-identical.
type WarmState struct {
	// probeL and probeR seed the smallest-budget side probes.
	probeL, probeR *emf.Result
	// oFit seeds the SW pessimistic-O′ EMS fit.
	oFit *emf.Result
	// bases and finals seed, per group, the plain-EMF base fit and the
	// scheme's final fit (constrained/concentrated).
	bases, finals []*emf.Result
	// sub holds the states of composite estimators (the two halves of
	// variance estimation).
	sub []*WarmState
}

// base returns the group-t base-fit seed, nil-safe. When the previous
// estimate skipped the base run (EMF*), its final constrained fit stands
// in — still a far better seed than the uniform start.
func (w *WarmState) base(t int) *emf.Result {
	if w == nil {
		return nil
	}
	if t < len(w.bases) && w.bases[t] != nil {
		return w.bases[t]
	}
	return w.final(t)
}

// seeds returns group t's base and final seeds. The smallest-budget group
// h−1 is seeded from probe, the fit the side or category probe just
// solved on the chosen poison set — fresher than any previous estimate's.
func (w *WarmState) seeds(t, h int, probe *emf.Result) (base, final *emf.Result) {
	base, final = w.base(t), w.final(t)
	if t == h-1 {
		base = probe
		if final == nil {
			final = probe
		}
	}
	return base, final
}

// final returns the group-t final-fit seed, nil-safe.
func (w *WarmState) final(t int) *emf.Result {
	if w == nil || t >= len(w.finals) {
		return nil
	}
	return w.finals[t]
}

// probeLeft and probeRight return the side-probe seeds, nil-safe.
func (w *WarmState) probeLeft() *emf.Result {
	if w == nil {
		return nil
	}
	return w.probeL
}

func (w *WarmState) probeRight() *emf.Result {
	if w == nil {
		return nil
	}
	return w.probeR
}

// oSeed returns the pessimistic-O′ fit seed, nil-safe.
func (w *WarmState) oSeed() *emf.Result {
	if w == nil {
		return nil
	}
	return w.oFit
}

// subState returns the i-th composite sub-state, nil-safe.
func (w *WarmState) subState(i int) *WarmState {
	if w == nil || i >= len(w.sub) {
		return nil
	}
	return w.sub[i]
}

// withSubWarm re-keys ctx to the i-th sub-state of its warm state (nil
// included), so each part of a composite estimator sees only its own fits.
func withSubWarm(ctx context.Context, i int) context.Context {
	return context.WithValue(ctx, warmCtxKey{}, WarmFromContext(ctx).subState(i))
}

// warmCtxKey keys the warm state in a context.
type warmCtxKey struct{}

// WithWarm attaches a warm state to ctx. Estimators built by Build read
// it in Estimate/EstimateHist and return the successor state in
// Result.Warm; passing the previous call's state forward turns a sequence
// of estimates over the same layout (stream epochs, γ-grid sweeps) into a
// warm-started chain. A nil state leaves ctx unchanged.
func WithWarm(ctx context.Context, ws *WarmState) context.Context {
	if ws == nil {
		return ctx
	}
	return context.WithValue(ctx, warmCtxKey{}, ws)
}

// WarmFromContext extracts the warm state attached by WithWarm, nil when
// absent.
func WarmFromContext(ctx context.Context) *WarmState {
	if ctx == nil {
		return nil
	}
	ws, _ := ctx.Value(warmCtxKey{}).(*WarmState)
	return ws
}

// emfDiag accumulates solver telemetry across the EM fits of one
// estimate.
type emfDiag struct {
	iters, restarts, warmHits int
	diverged                  bool
}

// observe folds the diagnostics of the given fits (nils skipped).
func (d *emfDiag) observe(rs ...*emf.Result) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		d.iters += r.Iters
		d.restarts += r.Restarts
		if r.Warm {
			d.warmHits++
		}
		if !r.Converged {
			d.diverged = true
		}
	}
}

// merge folds another accumulator (per-group accumulators reduced after a
// concurrent fan-out).
func (d *emfDiag) merge(o emfDiag) {
	d.iters += o.iters
	d.restarts += o.restarts
	d.warmHits += o.warmHits
	d.diverged = d.diverged || o.diverged
}

// apply writes the accumulated telemetry into an estimate.
func (d *emfDiag) apply(e *Result) {
	e.EMFIters = d.iters
	e.EMFRestarts = d.restarts
	e.WarmHits = d.warmHits
	e.Converged = !d.diverged
}
