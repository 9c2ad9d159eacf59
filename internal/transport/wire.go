// Package transport is the HTTP deployment of the DAP collector. It runs
// on the streaming aggregation engine (internal/stream): users join,
// receive a group assignment with its privacy budget, perturb locally (the
// LDP trust model — raw values never leave the device) and upload reports,
// which land in sharded per-group histograms; estimates come from epoch
// windows, re-estimated on rotation so reads never rescan reports.
//
// One process hosts many tenants, each defined by a task spec (core.Spec)
// — the same JSON that drives batch estimation and the CLIs. The original
// single-collector wire API (/v1/config, /v1/join, /v1/report,
// /v1/status, /v1/estimate) is preserved verbatim and operates on the
// tenant named "default"; the same routes exist per tenant under
// /v1/tenants/{tenant}/..., alongside tenant CRUD on /v1/tenants (which
// accepts and returns task specs), epoch rotation and a batched ingest
// endpoint for high-throughput clients.
package transport

import "repro/internal/core"

// GroupInfo describes one DAP group to clients.
type GroupInfo struct {
	Index   int     `json:"index"`
	Eps     float64 `json:"eps"`
	Reports int     `json:"reports"`
}

// ConfigResponse is returned by GET /v1/config. Fields beyond the original
// four describe the serving configuration and are additive; Spec carries
// the tenant's full task spec (the same JSON accepted by tenant creation,
// dap.Build and the CLIs).
type ConfigResponse struct {
	Eps    float64     `json:"eps"`
	Eps0   float64     `json:"eps0"`
	Scheme string      `json:"scheme"`
	Groups []GroupInfo `json:"groups"`

	Kind       string `json:"kind,omitempty"`
	K          int    `json:"k,omitempty"`
	Buckets    int    `json:"buckets,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	WindowMode string `json:"window_mode,omitempty"`
	WindowSpan int    `json:"window_span,omitempty"`
	EpochMs    int64  `json:"epoch_ms,omitempty"`

	// Wire is the tenant's preferred ingest wire (spec serve.wire:
	// json, bin or udp; empty = json). UDPAddr is the collector's bound
	// binary-ingest UDP socket, present once one is listening.
	Wire    string `json:"wire,omitempty"`
	UDPAddr string `json:"udp_addr,omitempty"`

	Spec *core.Spec `json:"spec,omitempty"`
}

// JoinResponse is returned by POST /v1/join: the caller's group
// assignment.
type JoinResponse struct {
	User  string    `json:"user"`
	Group GroupInfo `json:"group"`
}

// ReportRequest is the body of POST /v1/report. Values must already be
// perturbed (or poisoned — the collector cannot tell) and fall within the
// group mechanism's output domain; frequency tenants expect integral
// category indices in [0,K).
type ReportRequest struct {
	User   string    `json:"user"`
	Group  int       `json:"group"`
	Values []float64 `json:"values"`
}

// ReportResponse acknowledges accepted reports.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}

// IngestRequest is the body of POST /v1/ingest: many reports in one
// round-trip. Entries are applied independently — a rejected entry does
// not block the rest — and each entry's budget is charged atomically.
type IngestRequest struct {
	Reports []ReportRequest `json:"reports"`
}

// IngestResponse summarizes a batched ingest. Errors carries the first few
// per-entry rejection reasons. Seq echoes a binary frame's batch sequence
// (zero for JSON ingests and unsequenced frames), acking the exact frame
// on the lossless HTTP wire; for a frame stream it is the last applied
// frame's sequence and Frames counts the frames applied.
type IngestResponse struct {
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
	Errors   []string `json:"errors,omitempty"`
	Seq      uint64   `json:"seq,omitempty"`
	Frames   int      `json:"frames,omitempty"`
}

// StatusResponse is returned by GET /v1/status. Epoch fields are additive.
type StatusResponse struct {
	Users        int   `json:"users"`
	GroupReports []int `json:"group_reports"`

	Kind        string `json:"kind,omitempty"`
	Reporters   int    `json:"reporters,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	CachedEpoch uint64 `json:"cached_epoch,omitempty"`
}

// EstimateResponse is returned by GET /v1/estimate — a flat rendering of
// the unified core.Result. The original mean fields keep their meaning;
// Kind, Epoch, Live, Reports and the task-specific
// Freqs/XHat/PoisonCats/Variance fields are additive.
type EstimateResponse struct {
	Mean          float64   `json:"mean"`
	Gamma         float64   `json:"gamma"`
	PoisonedRight bool      `json:"poisoned_right"`
	GroupMeans    []float64 `json:"group_means"`
	Weights       []float64 `json:"weights"`
	VarMin        float64   `json:"var_min"`

	Kind         string    `json:"kind,omitempty"`
	Epoch        uint64    `json:"epoch,omitempty"`
	Live         bool      `json:"live,omitempty"`
	Reports      float64   `json:"reports,omitempty"`
	Freqs        []float64 `json:"freqs,omitempty"`
	PoisonCats   []int     `json:"poison_cats,omitempty"`
	XHat         []float64 `json:"xhat,omitempty"`
	Variance     float64   `json:"variance,omitempty"`
	SecondMoment float64   `json:"second_moment,omitempty"`

	// Solver telemetry of the estimate: total EM-map evaluations, rejected
	// SQUAREM extrapolations, warm-started runs, and whether every EM fit
	// met its tolerance before MaxIter (false = under-converged estimate).
	EMFIters    int  `json:"emf_iters,omitempty"`
	EMFRestarts int  `json:"emf_restarts,omitempty"`
	WarmHits    int  `json:"warm_hits,omitempty"`
	Converged   bool `json:"converged"`
}

// TenantRequest is the body of POST /v1/tenants: a name plus the task
// spec — the same JSON consumed by dap.Build, the stream engine and the
// CLIs. A request without a spec is rejected with 400.
type TenantRequest struct {
	Name string `json:"name"`
	// Spec is the task spec (with optional Serve section).
	Spec *core.Spec `json:"spec,omitempty"`
}

// TenantStatusResponse is returned by tenant CRUD and
// GET /v1/tenants/{tenant}. Spec carries the tenant's effective task spec,
// round-trippable into a new TenantRequest.
type TenantStatusResponse struct {
	Name         string    `json:"name"`
	Kind         string    `json:"kind"`
	Eps          float64   `json:"eps"`
	Eps0         float64   `json:"eps0"`
	Scheme       string    `json:"scheme"`
	Users        int       `json:"users"`
	Reporters    int       `json:"reporters"`
	Epoch        uint64    `json:"epoch"`
	GroupReports []float64 `json:"group_reports"`
	CachedEpoch  uint64    `json:"cached_epoch"`
	Spec         core.Spec `json:"spec"`
}

// TenantListResponse is returned by GET /v1/tenants.
type TenantListResponse struct {
	Tenants []TenantStatusResponse `json:"tenants"`
}

// ErrorResponse carries a machine-readable error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MergeResponse is returned by POST /v1/merge: what the coordinator did
// with the pushed delta. Status is "merged", "duplicate" or "late"
// (see stream.MergeResult); Published is the tenant's highest published
// epoch after this push and Degraded whether that publish was partial.
type MergeResponse struct {
	Status    string `json:"status"`
	Epoch     uint64 `json:"epoch"`
	Published uint64 `json:"published"`
	Degraded  bool   `json:"degraded,omitempty"`
}

// MergeNodeInfo is one registered node's liveness inside an admin
// status.
type MergeNodeInfo struct {
	Node       string `json:"node"`
	LastEpoch  uint64 `json:"last_epoch"`
	LastSeenMs int64  `json:"last_seen_ms,omitempty"`
	Deltas     uint64 `json:"deltas"`
}

// MergeTenantInfo is one tenant's merge-plane state inside an admin
// status.
type MergeTenantInfo struct {
	Tenant    string `json:"tenant"`
	Published uint64 `json:"published"`
	Degraded  bool   `json:"degraded,omitempty"`
	Pending   int    `json:"pending"`
	LastError string `json:"last_error,omitempty"`
}

// MergeStatusInfo summarizes the merge plane inside an admin status —
// present only on a coordinator. Degraded mirrors the per-tenant flags:
// a partial (quorum-after-timeout or gap-crossing) publish marks its
// tenant degraded until a later full epoch publishes cleanly.
type MergeStatusInfo struct {
	Nodes       []MergeNodeInfo   `json:"nodes"`
	Quorum      int               `json:"quorum"`
	StragglerMs int64             `json:"straggler_ms"`
	Tenants     []MergeTenantInfo `json:"tenants,omitempty"`
	Degraded    bool              `json:"degraded"`
}

// StoreHealthInfo describes the durability layer inside an admin status:
// WAL position and footprint, last snapshot, and whether the most recent
// append or sync failed (a degraded store serves reads but rejects
// writes).
type StoreHealthInfo struct {
	Healthy           bool   `json:"healthy"`
	LastErr           string `json:"last_err,omitempty"`
	LSN               uint64 `json:"lsn"`
	Segments          int    `json:"segments"`
	WALBytes          int64  `json:"wal_bytes"`
	SnapshotLSN       uint64 `json:"snapshot_lsn"`
	LastSnapshotAgeMs int64  `json:"last_snapshot_age_ms,omitempty"`
	Dir               string `json:"dir,omitempty"`
}

// RecoveryInfo summarizes the boot-time crash recovery that produced the
// running registry.
type RecoveryInfo struct {
	SnapshotLSN uint64   `json:"snapshot_lsn"`
	Records     int      `json:"records"`
	Applied     int      `json:"applied"`
	Tenants     int      `json:"tenants"`
	Torn        bool     `json:"torn"`
	Warnings    []string `json:"warnings,omitempty"`
	SpendBefore float64  `json:"spend_before"`
	SpendAfter  float64  `json:"spend_after"`
}

// AdminStatusResponse is returned by GET /v1/admin/status. Together with
// /metrics and /debug/pprof it forms the observability plane, which stays
// reachable during recovery (everything else returns 503 with Retry-After
// until the registry is rebuilt). Recovering, Degraded and the snapshot
// age mirror the dap_collector_recovering, dap_store_degraded and
// dap_store_snapshot_age_seconds gauges so dashboards can use either
// source.
type AdminStatusResponse struct {
	Recovering   bool   `json:"recovering"`
	RecoverError string `json:"recover_error,omitempty"`
	Tenants      int    `json:"tenants"`
	Durable      bool   `json:"durable"`
	// Degraded is true while the durable store is unhealthy (last append
	// or fsync failed); ingest answers 503 until an append succeeds.
	Degraded bool             `json:"degraded"`
	Store    *StoreHealthInfo `json:"store,omitempty"`
	Recovery *RecoveryInfo    `json:"recovery,omitempty"`
	// Merge is the coordinator's merge-plane state (coordinators only).
	Merge *MergeStatusInfo `json:"merge,omitempty"`
}
