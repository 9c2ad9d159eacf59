package stream

import (
	"time"

	"repro/internal/metrics"
)

// Per-tenant metric families. Each Tenant binds its children once at
// construction (tenantMetrics), so the ingest hot path increments plain
// pre-bound counters — no label hashing, no allocation, preserving the
// TestIngestSteadyStateAllocFree invariant with instrumentation on.
// Budget and lag gauges are derived at scrape time by SyncMetrics.
var (
	metIngested = metrics.NewCounterVec("dap_stream_reports_ingested_total",
		"Report values accepted into the live epoch.", "tenant")
	metRejected = metrics.NewCounterVec("dap_stream_reports_rejected_total",
		"Ingest requests rejected (validation, binding, budget or store-down).", "tenant")
	metRotations = metrics.NewCounterVec("dap_stream_epoch_rotations_total",
		"Epoch seals performed (replays during recovery not counted).", "tenant")
	metEstimateDur = metrics.NewHistogramVec("dap_stream_estimate_duration_seconds",
		"Window estimation latency (EstimateHist, cached rotations and live estimates).",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}, "tenant")
	metWarmHits = metrics.NewCounterVec("dap_stream_warm_hits_total",
		"Solver runs seeded from a previous fit during window estimation.", "tenant")

	metEpochLag = metrics.NewGaugeVec("dap_stream_epoch_lag_seconds",
		"Seconds since the tenant last sealed an epoch; -1 before the first seal.", "tenant")
	metTenants = metrics.NewGauge("dap_stream_tenants",
		"Registered tenants.")

	metBudgetSpent = metrics.NewGaugeVec("dap_privacy_budget_spent_eps",
		"Total privacy budget consumed across the tenant's reporters (sum of per-user spend).", "tenant")
	metBudgetCap = metrics.NewGaugeVec("dap_privacy_budget_cap_eps",
		"Per-user privacy budget cap epsilon.", "tenant")
	metBudgetRemaining = metrics.NewGaugeVec("dap_privacy_budget_remaining_eps",
		"Budget the tenant's current reporters may still spend (reporters x cap - spent).", "tenant")
	metReporters = metrics.NewGaugeVec("dap_privacy_reporters",
		"Users with recorded budget spend.", "tenant")

	// Merge-plane families (Coordinator). Deltas and stragglers count
	// live merges only (recovery replays are silent, like rotations);
	// the node and lag gauges are refreshed at scrape time by
	// Coordinator.SyncMetrics.
	metMergeDeltas = metrics.NewCounterVec("dap_merge_deltas_total",
		"Epoch deltas accepted and merged by the coordinator.", "node")
	metMergeStragglers = metrics.NewCounter("dap_merge_stragglers_total",
		"Deltas that arrived after their epoch was already published (dropped).")
	metMergeNodes = metrics.NewGauge("dap_merge_nodes",
		"Collector nodes registered on the merge plane.")
	metMergeEpochLag = metrics.NewGaugeVec("dap_merge_epoch_lag_seconds",
		"Seconds since the coordinator last published a merged epoch; -1 before the first.", "tenant")
)

// tenantMetrics is a tenant's pre-bound metric handles.
type tenantMetrics struct {
	ingested    *metrics.Counter
	rejected    *metrics.Counter
	rotations   *metrics.Counter
	estimateDur *metrics.Histogram
	warmHits    *metrics.Counter
}

func bindTenantMetrics(name string) tenantMetrics {
	return tenantMetrics{
		ingested:    metIngested.With(name),
		rejected:    metRejected.With(name),
		rotations:   metRotations.With(name),
		estimateDur: metEstimateDur.With(name),
		warmHits:    metWarmHits.With(name),
	}
}

// dropTenantMetrics removes a deleted tenant's series from future scrapes.
// Counter families keep the lifetime totals of live tenants only — a
// deleted name's counts disappear rather than resetting to zero, which is
// the conventional series-deletion semantics.
func dropTenantMetrics(name string) {
	metIngested.Delete(name)
	metRejected.Delete(name)
	metRotations.Delete(name)
	metEstimateDur.Delete(name)
	metWarmHits.Delete(name)
	metEpochLag.Delete(name)
	metBudgetSpent.Delete(name)
	metBudgetCap.Delete(name)
	metBudgetRemaining.Delete(name)
	metReporters.Delete(name)
}

// SyncMetrics refreshes the scrape-derived gauges: tenant count, per-
// tenant epoch lag and privacy-budget levels, and (when a store is
// attached) the store gauges. The /metrics handler calls it once per
// scrape so the ingest path never pays for level computation.
//
//dapvet:scrape
func (r *Registry) SyncMetrics() {
	tenants := r.List()
	metTenants.Set(float64(len(tenants)))
	for _, t := range tenants {
		if last := t.LastRotation(); last.IsZero() {
			metEpochLag.With(t.name).Set(-1)
		} else {
			metEpochLag.With(t.name).Set(time.Since(last).Seconds())
		}
		users, spent := t.acct.Stats()
		cap := t.acct.Cap()
		metBudgetSpent.With(t.name).Set(spent)
		metBudgetCap.With(t.name).Set(cap)
		remaining := float64(users)*cap - spent
		if remaining < 0 {
			remaining = 0
		}
		metBudgetRemaining.With(t.name).Set(remaining)
		metReporters.With(t.name).Set(float64(users))
	}
	if r.st != nil {
		r.st.SyncMetrics() //dapvet:lockorder-ok r.st is attached only after Store.Replay returned, so recovery no longer holds the store mutex
	}
}
