// Package stream is the serving layer of the DAP reproduction: a
// streaming aggregation engine that turns the paper's one-shot batch
// collector into a long-lived, multi-tenant service.
//
// Three layers compose:
//
//   - Sharded histograms (shard.go). Per (tenant, group) the live epoch is
//     a set of lock-striped count histograms over the mechanism's
//     discretized output domain. Ingesting a report is a bucket-index
//     computation plus a counter increment under one stripe's lock —
//     memory is O(shards·h·d′) regardless of how many reports arrive, and
//     ingest throughput scales with the stripe count instead of
//     serializing on a global mutex. The bucket indices are computed with
//     ldp.Discretizer, which reproduces emf.(*Matrix).Counts exactly, so a
//     histogram accumulated report-by-report equals the batch histogram
//     bucket-for-bucket and the downstream estimate is identical (the
//     histogram-equivalence invariant, enforced by tests).
//
//   - Epoch windows (tenant.go). Rotate seals the live shards into an
//     immutable epoch snapshot, re-estimates the configured window (the
//     sealed epoch for tumbling windows, the last Span sealed epochs for
//     sliding ones) and caches the result, so reading an estimate is a
//     pointer load — always fresh without rescanning reports. Live
//     estimates that fold in the unsealed epoch are available on demand.
//
//   - A tenant registry (registry.go). One process hosts many concurrent
//     aggregations — each defined by a declarative task spec (core.Spec)
//     and estimated through the single core.Build surface — with its own
//     parameters, privacy accountant, histograms and epoch clock.
//
// A tenant is constructed from a core.Spec: the task section selects the
// protocol via core.Build (the same call path batch estimation uses), and
// the spec's Serve section carries the engine parameters (shards, bucket
// resolution, epoch windows).
package stream

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// WindowMode selects the epoch window shape.
type WindowMode int

// Window modes.
const (
	// Tumbling estimates each sealed epoch on its own: Rotate seals the
	// live histograms and the cached estimate covers exactly that epoch.
	Tumbling WindowMode = iota
	// Sliding estimates the union of the last Span sealed epochs: each
	// rotation slides the window forward by one epoch.
	Sliding
)

// String implements fmt.Stringer.
func (m WindowMode) String() string {
	if m == Sliding {
		return "sliding"
	}
	return "tumbling"
}

// ParseWindowMode parses a window mode name.
func ParseWindowMode(s string) (WindowMode, error) {
	switch strings.ToLower(s) {
	case "", "tumbling", "fixed":
		return Tumbling, nil
	case "sliding":
		return Sliding, nil
	}
	return 0, fmt.Errorf("%w: unknown window mode %q", core.ErrBadSpec, s)
}

// WindowConfig shapes a tenant's epoch windows.
type WindowConfig struct {
	// Mode selects tumbling (per-epoch) or sliding (last-Span-epochs)
	// estimation windows.
	Mode WindowMode
	// Span is the number of sealed epochs a sliding window covers
	// (default 1; tumbling windows always cover exactly one).
	Span int
	// Epoch is the wall-clock epoch length driving automatic rotation;
	// zero disables the clock and epochs rotate only on explicit Rotate
	// calls (the batch-compatible default: the live window then simply
	// accumulates everything ever ingested).
	Epoch time.Duration
}

// Config parameterizes one tenant: the task spec (what is estimated, with
// which mechanism, scheme and budgets — the exact description core.Build
// consumes) plus the engine parameters of this tenant's histograms and
// windows. ConfigFromSpec fills the engine fields from the spec's Serve
// section, so one JSON spec fully describes a tenant.
type Config struct {
	// Spec is the task description. Its Serve section, when present, seeds
	// any engine field left zero below.
	Spec core.Spec
	// Buckets fixes one output histogram resolution d′ for every group
	// (numeric kinds), rounded down to even and floored at 8 like
	// emf.BucketCounts. Zero derives per-group resolutions from
	// ExpectedUsers instead — the streaming default.
	Buckets int
	// ExpectedUsers is the anticipated user population per window. With
	// Buckets zero, group t's resolution follows the paper's rule on the
	// report volume that population yields — users split equally, group t
	// reporting 2^t times — exactly as the batch collector would pick for
	// the same collection (default 4096 users).
	ExpectedUsers int
	// Shards is the number of lock stripes per group histogram
	// (default 8).
	Shards int
	// Window shapes the epoch windows.
	Window WindowConfig
	// Warm seeds each window re-estimation from the previous estimate's EM
	// fits. Off (the default), every estimate is bit-identical to batch
	// estimation over the same histograms — the engine's equivalence
	// invariant; on, estimates are tolerance-equivalent and re-estimation
	// converges in a fraction of the iterations.
	Warm bool
}

// ConfigFromSpec builds a tenant configuration from a task spec,
// honouring its Serve section. This is the one spec→tenant conversion
// used by the wire API and every CLI.
func ConfigFromSpec(sp core.Spec) (Config, error) {
	cfg := Config{Spec: sp}
	if s := sp.Serve; s != nil {
		mode, err := ParseWindowMode(s.Window)
		if err != nil {
			return Config{}, err
		}
		cfg.Buckets = s.Buckets
		cfg.ExpectedUsers = s.ExpectedUsers
		cfg.Shards = s.Shards
		cfg.Warm = s.Warm
		cfg.Window = WindowConfig{
			Mode:  mode,
			Span:  s.Span,
			Epoch: time.Duration(s.EpochMs) * time.Millisecond,
		}
	}
	return cfg, nil
}

// SpecWithServe returns the task spec including a Serve section
// reflecting the effective engine configuration — the JSON the wire API
// returns for a tenant, sufficient to recreate it.
func (cfg Config) SpecWithServe() core.Spec {
	sp := cfg.Spec
	sp.Serve = &core.ServeSpec{
		Buckets:       cfg.Buckets,
		ExpectedUsers: cfg.ExpectedUsers,
		Shards:        cfg.Shards,
		Window:        cfg.Window.Mode.String(),
		Span:          cfg.Window.Span,
		EpochMs:       cfg.Window.Epoch.Milliseconds(),
		Warm:          cfg.Warm,
	}
	return sp
}

// normalize validates cfg and fills defaults, returning the effective
// configuration. Engine fields left zero adopt the spec's Serve section.
func (cfg Config) normalize() (Config, error) {
	if s := cfg.Spec.Serve; s != nil {
		if cfg.Buckets == 0 {
			cfg.Buckets = s.Buckets
		}
		if cfg.ExpectedUsers == 0 {
			cfg.ExpectedUsers = s.ExpectedUsers
		}
		if cfg.Shards == 0 {
			cfg.Shards = s.Shards
		}
		if !cfg.Warm {
			cfg.Warm = s.Warm
		}
		if cfg.Window == (WindowConfig{}) {
			mode, err := ParseWindowMode(s.Window)
			if err != nil {
				return cfg, err
			}
			cfg.Window = WindowConfig{
				Mode:  mode,
				Span:  s.Span,
				Epoch: time.Duration(s.EpochMs) * time.Millisecond,
			}
		}
	}
	cfg.Spec = cfg.Spec.Normalize()
	if err := cfg.Spec.Validate(); err != nil {
		return cfg, err
	}
	switch cfg.Spec.Task {
	case core.TaskMean, core.TaskFrequency, core.TaskDistribution:
	default:
		return cfg, fmt.Errorf("%w: task %q cannot run as a stream tenant",
			core.ErrBadSpec, cfg.Spec.Task)
	}
	if cfg.Spec.Defense != nil {
		return cfg, fmt.Errorf("%w: defense comparators need raw reports and cannot run as stream tenants",
			core.ErrBadSpec)
	}
	if cfg.Spec.Attack != nil {
		return cfg, fmt.Errorf("%w: attack sections are simulation-only and cannot cross the wire (strip the attack before creating a tenant)",
			core.ErrBadSpec)
	}
	if cfg.ExpectedUsers == 0 {
		cfg.ExpectedUsers = 4096
	}
	if cfg.ExpectedUsers < 0 {
		return cfg, errors.New("stream: ExpectedUsers must be positive")
	}
	if cfg.Buckets < 0 {
		return cfg, errors.New("stream: Buckets must be non-negative")
	}
	if cfg.Buckets > 0 {
		if cfg.Buckets%2 == 1 {
			cfg.Buckets--
		}
		if cfg.Buckets < 8 {
			cfg.Buckets = 8
		}
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 1 {
		return cfg, errors.New("stream: Shards must be positive")
	}
	if cfg.Window.Span == 0 {
		cfg.Window.Span = 1
	}
	if cfg.Window.Span < 1 {
		return cfg, errors.New("stream: window span must be positive")
	}
	if cfg.Window.Mode == Tumbling {
		cfg.Window.Span = 1
	}
	if cfg.Window.Epoch < 0 {
		return cfg, errors.New("stream: epoch duration must be non-negative")
	}
	return cfg, nil
}
