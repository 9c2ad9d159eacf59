package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// ErrWrongGroup is returned by Ingest when a user reports for a different
// group than the one they are bound to.
var ErrWrongGroup = errors.New("stream: user belongs to another group")

// ErrStoreDown is returned when a state change cannot be made durable:
// the request was rejected (and any budget charge rolled back) because
// the WAL append failed. Clients should retry after the store heals.
var ErrStoreDown = errors.New("stream: durable store unavailable")

// ErrRotating is returned by TryRotate when a rotation is already in
// flight; the caller should retry shortly.
var ErrRotating = errors.New("stream: rotation in progress")

// hashUser maps a user id to a histogram/binding stripe with FNV-1a. The
// hash must be stable across process restarts — WAL replay re-runs every
// accepted report through the ingest path, and bit-identical recovered
// sums need two ingredients: a deterministic user→stripe assignment
// (this hash) and same-stripe ingests serializing their WAL append with
// their apply (the stripe lock held across both in Ingest/IngestBatch),
// so per-stripe float accumulation order equals LSN order.
//
//dapvet:hotpath
func hashUser(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Snapshot is one materialized estimate of a tenant's window.
type Snapshot struct {
	// Tenant is the owning tenant's name.
	Tenant string
	// Task is the tenant's task kind.
	Task core.TaskKind
	// Epoch is the number of epochs sealed when the snapshot was taken.
	Epoch uint64
	// Live reports whether the unsealed live epoch was folded in.
	Live bool
	// At is the estimation wall-clock time.
	At time.Time
	// Reports is the total report count across the window's groups.
	Reports float64
	// Result is the unified estimate (mean, histogram, frequencies, γ̂ and
	// per-group diagnostics — whichever the task produces).
	Result *core.Result
}

// epochHist is one sealed epoch: per-group histograms, exact sums and
// report counts. Sealed epochs are immutable and shared by reference.
type epochHist struct {
	counts [][]float64
	sums   []float64
	ns     []float64
}

// Tenant is one hosted aggregation: a task-spec estimator, a privacy
// accountant, per-group sharded live histograms, a ring of sealed epochs
// and the cached window estimate.
type Tenant struct {
	name   string
	cfg    Config
	est    core.Streamable
	groups []core.Group
	acct   *privacy.Accountant
	disc   []ldp.Discretizer // per group; unused for frequency tasks
	bkt    []int             // per-group histogram resolution d′

	// st is the durability layer, nil for an ephemeral tenant. When set,
	// every accepted ingest, join and rotation is WAL-appended before it
	// takes effect, and walStart (guarded by mu) tracks the live epoch's
	// replay position: the LSN right after the last rotation record.
	st       *store.Store
	walStart uint64
	// acctFrom is the replay position of the accountant/join state; it is
	// only consulted during single-threaded recovery.
	acctFrom uint64

	joinMu sync.Mutex
	joined int

	userGrp userGroups // user id → group index (set at join or first report)

	// mu orders ingestion against rotation: ingesters hold it shared while
	// touching a live stripe, Rotate holds it exclusively while swapping
	// the live shard sets and sealing the epoch.
	mu     sync.RWMutex
	live   []*shardSet
	sealed []epochHist // newest last; len ≤ cfg.Window.Span
	seq    uint64
	// onSeal, when set (guarded by mu), receives each live seal's
	// EpochDelta — the merge-plane export. Fired by rotate after the
	// seal, outside all locks; never fired by recovery replays. While it
	// is set, ingest records each charged user on its live stripe
	// (shard.touched) and the seal ships only those users' spends.
	onSeal func(*EpochDelta)
	// fullLedger makes the next seal ship the whole ledger instead of the
	// users charged since the previous seal (see SetSealHook and
	// ResendLedger).
	fullLedger atomic.Bool

	// rotateMu serializes rotations end to end (WAL append + seal +
	// estimate), so TryRotate can report an in-flight rotation.
	rotateMu sync.Mutex

	cached atomic.Pointer[Snapshot]
	// warm is the EM-fit state of the latest estimate, seeding the next
	// re-estimation when cfg.Warm is on (epoch-to-epoch warm start). Any
	// recent estimate is a valid seed, so the pointer is simply last-write
	// -wins.
	warm atomic.Pointer[core.WarmState]

	clockMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}

	// met holds the tenant's pre-bound metric handles; lastRotate is the
	// wall clock of the last live seal (unix nanos, 0 = never), read by
	// the epoch-lag gauge at scrape time.
	met        tenantMetrics
	lastRotate atomic.Int64
}

// NewTenant builds a tenant from cfg (defaults filled, see Config). The
// task spec goes through core.Build — the same construction path as batch
// estimation — so any spec that estimates in batch estimates here, and
// any spec Build rejects is rejected here with the same ErrBadSpec.
func NewTenant(name string, cfg Config) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("stream: tenant name must be non-empty")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	est, err := core.Build(cfg.Spec)
	if err != nil {
		return nil, err
	}
	streamable, ok := est.(core.Streamable)
	if !ok {
		return nil, fmt.Errorf("%w: task %q cannot run as a stream tenant",
			core.ErrBadSpec, cfg.Spec.Task)
	}
	t := &Tenant{name: name, cfg: cfg, est: streamable}
	t.met = bindTenantMetrics(name)
	t.groups = streamable.Groups()
	h := len(t.groups)
	// Per-group histogram resolution: the paper's d′ rule applied to the
	// report volume ExpectedUsers would yield — users split into h equal
	// chunks with the batch collector's exact rounding, group t reporting
	// 2^t times — so a window collected at the expected scale estimates at
	// the same resolution the batch path would have picked.
	t.bkt = make([]int, h)
	for i := range t.groups {
		switch {
		case cfg.Spec.Task == core.TaskFrequency:
			t.bkt[i] = cfg.Spec.K
		case cfg.Buckets > 0:
			t.bkt[i] = cfg.Buckets
		default:
			users := (i+1)*cfg.ExpectedUsers/h - i*cfg.ExpectedUsers/h
			t.bkt[i] = emf.OutputBuckets(users * t.groups[i].Reports)
		}
	}
	if cfg.Spec.Task != core.TaskFrequency {
		t.disc = make([]ldp.Discretizer, h)
		for i := range t.groups {
			t.disc[i] = ldp.NewDiscretizer(t.est.OutputDomain(i), t.bkt[i])
		}
	}
	t.acct, err = privacy.NewAccountant(cfg.Spec.Eps)
	if err != nil {
		return nil, err
	}
	t.live = t.freshLive()
	return t, nil
}

// NewTenantSpec builds a tenant directly from a task spec, honouring its
// Serve section — the one-call spec→tenant path.
func NewTenantSpec(name string, sp core.Spec) (*Tenant, error) {
	cfg, err := ConfigFromSpec(sp)
	if err != nil {
		return nil, err
	}
	return NewTenant(name, cfg)
}

// freshLive allocates one empty shard set per group.
func (t *Tenant) freshLive() []*shardSet {
	live := make([]*shardSet, len(t.groups))
	for i := range live {
		live[i] = newShardSet(t.cfg.Shards, t.bkt[i])
	}
	return live
}

// Buckets returns the per-group histogram resolutions d′.
func (t *Tenant) Buckets() []int { return append([]int(nil), t.bkt...) }

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Kind returns the tenant's task kind.
func (t *Tenant) Kind() core.TaskKind { return t.cfg.Spec.Task }

// Config returns the effective (normalized) configuration.
func (t *Tenant) Config() Config { return t.cfg }

// Spec returns the tenant's task spec with a Serve section reflecting the
// effective engine configuration — enough to recreate the tenant.
func (t *Tenant) Spec() core.Spec { return t.cfg.SpecWithServe() }

// Estimator exposes the tenant's task estimator.
func (t *Tenant) Estimator() core.Estimator { return t.est }

// Groups returns the group layout.
func (t *Tenant) Groups() []core.Group { return append([]core.Group(nil), t.groups...) }

// Accountant exposes the tenant's privacy accountant.
func (t *Tenant) Accountant() *privacy.Accountant { return t.acct }

// Join assigns the next user to a group round-robin and records the
// binding, mirroring the batch collector's equal-sized grouping. With a
// store attached the assignment is WAL-logged (best effort: a join handed
// out while the store is down is simply not durable — the binding is
// re-established idempotently when the user first reports).
func (t *Tenant) Join() (string, core.Group) {
	t.joinMu.Lock()
	id := fmt.Sprintf("u%06d", t.joined)
	grp := t.joined % len(t.groups)
	if t.st != nil {
		_, _ = t.st.AppendJoin(t.name, id, grp)
	}
	t.joined++
	t.userGrp.store(hashUser(id), id, grp)
	t.joinMu.Unlock()
	return id, t.groups[grp]
}

// restoreJoin re-applies a logged join during recovery: the recorded
// binding, not a recomputed one, so replay reproduces history exactly.
func (t *Tenant) restoreJoin(user string, group int) {
	t.joinMu.Lock()
	t.joined++
	t.userGrp.store(hashUser(user), user, group)
	t.joinMu.Unlock()
}

// Joined returns how many users have joined.
func (t *Tenant) Joined() int {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	return t.joined
}

// userGroups is a striped, typed user→group binding map. The bind-check
// on the ingest hot path is one RLock plus one map[string]int lookup —
// unlike sync.Map, whose any-typed keys box the user string (one 16-byte
// allocation) on every call.
type userGroups struct {
	shards [64]userGroupShard
}

type userGroupShard struct {
	mu sync.RWMutex
	m  map[string]int
	_  [32]byte // keep adjacent stripes off one cache line
}

// loadOrStore returns the existing binding for user, or records group as
// its binding. hash selects the stripe (any stable hash of user works;
// Ingest reuses the histogram stripe hash).
func (u *userGroups) loadOrStore(hash uint64, user string, group int) (prev int, loaded bool) {
	s := &u.shards[hash&63]
	s.mu.RLock()
	prev, ok := s.m[user]
	s.mu.RUnlock()
	if ok {
		return prev, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[user]; ok {
		return prev, true
	}
	if s.m == nil {
		s.m = make(map[string]int)
	}
	s.m[user] = group
	return group, false
}

// store records a binding unconditionally (user join).
func (u *userGroups) store(hash uint64, user string, group int) {
	s := &u.shards[hash&63]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]int)
	}
	s.m[user] = group
	s.mu.Unlock()
}

// idxPool recycles the per-request bucket-index buffer so the steady-state
// ingest path allocates nothing (pointer-to-slice avoids boxing the slice
// header on Put).
var idxPool = sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }}

// Ingest validates and records a batch of reports from one user. The
// sequence is strict: every value is validated and discretized first, the
// user's budget is charged atomically for the whole batch, and only then
// is group state touched — a rejected request mutates nothing. Unknown
// users are bound to the group they first report for; later reports for a
// different group are rejected.
func (t *Tenant) Ingest(user string, group int, values []float64) error {
	err := t.ingest(user, group, values)
	if err != nil {
		t.met.rejected.Inc()
	} else {
		t.met.ingested.Add(uint64(len(values)))
	}
	return err
}

// ingest is Ingest's body; the exported wrapper only feeds the tenant's
// accept/reject counters (pre-bound handles — no allocation).
func (t *Tenant) ingest(user string, group int, values []float64) error {
	if user == "" {
		return errors.New("stream: user id must be non-empty")
	}
	if group < 0 || group >= len(t.groups) {
		return fmt.Errorf("stream: group %d out of range [0,%d)", group, len(t.groups))
	}
	g := t.groups[group]
	if len(values) == 0 {
		return errors.New("stream: no values")
	}
	if len(values) > g.Reports {
		return fmt.Errorf("stream: group %d accepts at most %d reports per request", group, g.Reports)
	}
	buf := idxPool.Get().(*[]int)
	defer idxPool.Put(buf)
	idx, err := t.indices(group, values, (*buf)[:0])
	*buf = idx[:0]
	if err != nil {
		return err
	}
	stripe := hashUser(user)
	if prev, loaded := t.userGrp.loadOrStore(stripe, user, group); loaded && prev != group {
		return fmt.Errorf("%w: user %s is bound to group %d", ErrWrongGroup, user, prev)
	}
	// Budget accounting: each report in group t costs ε_t; the batch is
	// charged atomically before any histogram is touched. Charge, WAL
	// append and histogram apply all happen under the shared rotation lock
	// so an epoch seal (which logs its own record under the exclusive
	// lock) can never slip between the append and the apply — the WAL's
	// record order is exactly the order state changed in. The target
	// stripe's lock is additionally held across the same window: replay
	// applies records in LSN order, so same-stripe ingests must serialize
	// their append+apply for the live run's per-stripe float accumulation
	// order (and a same-user ledger's charge order) to equal log order —
	// that is what makes recovered sums bit-identical rather than
	// approximately equal. Different stripes still proceed concurrently
	// and coalesce into one group-commit write.
	t.mu.RLock()
	sh := t.live[group].stripe(stripe)
	sh.mu.Lock()
	if err := t.acct.SpendN(user, g.Eps, len(values)); err != nil {
		sh.mu.Unlock()
		t.mu.RUnlock()
		return err
	}
	if t.st != nil {
		if _, err := t.st.AppendIngest(t.name, user, group, values); err != nil {
			// Not durable ⇒ not accepted: roll the charge back so the
			// rejected request leaves no trace, and surface a retryable
			// store-down error.
			t.acct.Refund(user, g.Eps, len(values))
			sh.mu.Unlock()
			t.mu.RUnlock()
			return fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
	}
	sh.addLocked(idx, values)
	if t.onSeal != nil {
		sh.touched = append(sh.touched, user)
	}
	sh.mu.Unlock()
	t.mu.RUnlock()
	return nil
}

// BatchEntry is one report in a batched ingest. It aliases the store's
// WAL entry type so an all-accepted batch is logged without copying.
type BatchEntry = store.IngestEntry

// IngestBatch applies many reports with Ingest's exact per-entry
// semantics — validate, bind, charge atomically, then touch group state —
// but one WAL write covers every accepted entry, which is what makes the
// durable ingest path fast. The returned slice holds one error per entry,
// nil for accepted ones; a rejected entry mutates nothing and does not
// block the rest. When the store cannot log the batch, every staged
// entry's charge is rolled back and reported as ErrStoreDown.
func (t *Tenant) IngestBatch(entries []BatchEntry) []error {
	errs := t.ingestBatch(entries)
	var accepted uint64
	for i, err := range errs {
		if err != nil {
			t.met.rejected.Inc()
		} else {
			accepted += uint64(len(entries[i].Values))
		}
	}
	t.met.ingested.Add(accepted)
	return errs
}

// ingestBatch is IngestBatch's body; the exported wrapper feeds the
// accept/reject counters once per batch.
func (t *Tenant) ingestBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	type stagedEntry struct {
		i      int
		stripe uint64
		idx    []int
	}
	staged := make([]stagedEntry, 0, len(entries))
	// One index arena for the whole batch, pre-sized so sub-slices never
	// move under a later grow.
	total := 0
	for i := range entries {
		total += len(entries[i].Values)
	}
	arena := make([]int, 0, total)
	// As in Ingest: charge, WAL append and histogram apply all happen
	// under the shared rotation lock, so an epoch seal can never slip
	// between the append and the apply — record order is state order.
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range entries {
		e := &entries[i]
		if e.User == "" {
			errs[i] = errors.New("stream: user id must be non-empty")
			continue
		}
		if e.Group < 0 || e.Group >= len(t.groups) {
			errs[i] = fmt.Errorf("stream: group %d out of range [0,%d)", e.Group, len(t.groups))
			continue
		}
		g := t.groups[e.Group]
		if len(e.Values) == 0 {
			errs[i] = errors.New("stream: no values")
			continue
		}
		if len(e.Values) > g.Reports {
			errs[i] = fmt.Errorf("stream: group %d accepts at most %d reports per request", e.Group, g.Reports)
			continue
		}
		base := len(arena)
		idx, err := t.indices(e.Group, e.Values, arena[base:base])
		if err != nil {
			errs[i] = err
			continue
		}
		arena = arena[:base+len(idx)]
		stripe := hashUser(e.User)
		if prev, loaded := t.userGrp.loadOrStore(stripe, e.User, e.Group); loaded && prev != e.Group {
			errs[i] = fmt.Errorf("%w: user %s is bound to group %d", ErrWrongGroup, e.User, prev)
			continue
		}
		staged = append(staged, stagedEntry{i: i, stripe: stripe, idx: idx})
	}
	// Same-stripe serialization, batch form (see Ingest): every stripe the
	// batch touches is locked — in one global (group, stripe) order, so
	// concurrent batches cannot deadlock — and held across charge, WAL
	// append and apply, keeping per-stripe (and per-user ledger) apply
	// order equal to LSN order for bit-identical replay.
	nsh := t.cfg.Shards
	keys := make([]int, 0, len(staged))
	for _, sg := range staged {
		keys = append(keys, entries[sg.i].Group*nsh+int(sg.stripe%uint64(nsh)))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		t.live[k/nsh].shards[k%nsh].mu.Lock()
	}
	defer func() {
		for _, k := range keys {
			t.live[k/nsh].shards[k%nsh].mu.Unlock()
		}
	}()
	// Charge each staged entry; a failed charge rejects that entry alone.
	charged := staged[:0]
	for _, sg := range staged {
		e := &entries[sg.i]
		if err := t.acct.SpendN(e.User, t.groups[e.Group].Eps, len(e.Values)); err != nil {
			errs[sg.i] = err
			continue
		}
		charged = append(charged, sg)
	}
	staged = charged
	if t.st != nil && len(staged) > 0 {
		recs := entries // all-accepted batches log as-is, no copy
		if len(staged) != len(entries) {
			recs = make([]store.IngestEntry, len(staged))
			for j, sg := range staged {
				recs[j] = entries[sg.i]
			}
		}
		if _, err := t.st.AppendIngestBatch(t.name, recs); err != nil {
			// Not durable ⇒ not accepted: roll back every staged charge so
			// the rejected batch leaves no trace, and surface a retryable
			// store-down error per entry.
			for _, sg := range staged {
				e := &entries[sg.i]
				t.acct.Refund(e.User, t.groups[e.Group].Eps, len(e.Values))
				errs[sg.i] = fmt.Errorf("%w: %v", ErrStoreDown, err)
			}
			return errs
		}
	}
	track := t.onSeal != nil
	for _, sg := range staged {
		e := &entries[sg.i]
		sh := t.live[e.Group].stripe(sg.stripe)
		sh.addLocked(sg.idx, e.Values)
		if track {
			sh.touched = append(sh.touched, e.User)
		}
	}
	return errs
}

// replayIngest re-applies one logged ingest record during recovery. The
// values re-run the normal validation/discretization path; the budget
// charge is forced (the record was admitted under the cap when logged)
// and only applied when the accountant does not already reflect it
// (withCharge). Erroring records — possible only if the spec changed
// under a tenant, which the spec-from-WAL recovery path prevents — are
// reported, not applied.
func (t *Tenant) replayIngest(user string, group int, values []float64, withCharge bool) error {
	if group < 0 || group >= len(t.groups) {
		return fmt.Errorf("stream: replay: group %d out of range", group)
	}
	buf := idxPool.Get().(*[]int)
	defer idxPool.Put(buf)
	idx, err := t.indices(group, values, (*buf)[:0])
	*buf = idx[:0]
	if err != nil {
		return err
	}
	stripe := hashUser(user)
	t.userGrp.loadOrStore(stripe, user, group)
	if withCharge {
		t.acct.ForceSpend(user, t.groups[group].Eps, len(values))
	}
	t.live[group].add(stripe, idx, values)
	return nil
}

// indices validates values for the tenant's task and appends their bucket
// indices to idx. NaN, ±Inf, out-of-domain values and (for frequency
// tenants) non-integral or out-of-range categories are rejected here, at
// the wire boundary, before any state changes; rejections wrap
// core.ErrDomain.
func (t *Tenant) indices(group int, values []float64, idx []int) ([]int, error) {
	if cap(idx) < len(values) {
		idx = make([]int, len(values))
	}
	idx = idx[:len(values)]
	if t.cfg.Spec.Task == core.TaskFrequency {
		k := float64(t.cfg.Spec.K)
		for j, v := range values {
			c := int(v)
			if v != float64(c) || v < 0 || v >= k {
				return idx, fmt.Errorf("%w: %g is not a category in [0,%d)",
					core.ErrDomain, v, t.cfg.Spec.K)
			}
			idx[j] = c
		}
		return idx, nil
	}
	d := t.disc[group]
	for j, v := range values {
		i, ok := d.Index(v)
		if !ok {
			dom := t.est.OutputDomain(group)
			return idx, fmt.Errorf("%w: %g outside output domain [%g,%g]",
				core.ErrDomain, v, dom.Lo, dom.Hi)
		}
		idx[j] = i
	}
	return idx, nil
}

// Rotate seals the live epoch, re-estimates the window and caches the
// snapshot. The sealed epoch enters the ring even when the window cannot
// be estimated yet (some group still empty) — the error then reports why
// no fresh cache exists, and the next epochs accumulate normally.
// Rotations are serialized; Rotate waits for an in-flight one.
func (t *Tenant) Rotate() (*Snapshot, error) {
	t.rotateMu.Lock()
	defer t.rotateMu.Unlock()
	return t.rotate()
}

// TryRotate is Rotate without the wait: when another rotation is already
// in flight it returns ErrRotating immediately, so a wire handler can
// answer 503 + Retry-After instead of stacking blocked rotations.
func (t *Tenant) TryRotate() (*Snapshot, error) {
	if !t.rotateMu.TryLock() {
		return nil, ErrRotating
	}
	defer t.rotateMu.Unlock()
	return t.rotate()
}

// sealLocked moves the live epoch into the sealed ring and bumps the
// epoch counter. Caller holds t.mu exclusively. When a seal hook is
// registered the sealed epoch's merge-plane delta is built and returned
// (nil otherwise): per-stripe sums are captured before the stripe fold
// so the coordinator can reproduce that fold bit-for-bit, and the spends
// are read here — under the exclusive lock no ingest can interleave, so
// ledger and histograms are one consistent cut.
func (t *Tenant) sealLocked() *EpochDelta {
	var delta *EpochDelta
	if t.onSeal != nil {
		delta = &EpochDelta{Tenant: t.name, StripeSums: make([][]float64, len(t.groups))}
		for i, s := range t.live {
			ss := make([]float64, len(s.shards))
			for j := range s.shards {
				ss[j] = s.shards[j].sum
			}
			delta.StripeSums[i] = ss
		}
		delta.Spend = t.sealSpendLocked()
	}
	eh := epochHist{
		counts: make([][]float64, len(t.groups)),
		sums:   make([]float64, len(t.groups)),
		ns:     make([]float64, len(t.groups)),
	}
	for i, s := range t.live {
		eh.counts[i] = make([]float64, t.bkt[i])
		eh.sums[i], eh.ns[i] = s.mergeLocked(eh.counts[i])
	}
	prev := t.live
	t.live = t.freshLive()
	for i, s := range prev {
		// The touched lists were copied into the delta: hand their
		// storage to the next epoch instead of regrowing it.
		for j := range s.shards {
			t.live[i].shards[j].touched = s.shards[j].touched[:0]
		}
	}
	t.sealed = append(t.sealed, eh)
	if over := len(t.sealed) - t.cfg.Window.Span; over > 0 {
		t.sealed = append([]epochHist(nil), t.sealed[over:]...)
	}
	t.seq++
	if delta != nil {
		delta.Epoch, delta.Seq = t.seq, t.seq
		// Sealed epochs are immutable: aliasing their histograms into the
		// delta is safe and keeps the seal allocation-light.
		delta.Counts, delta.Ns = eh.counts, eh.ns
	}
	return delta
}

// sealSpendLocked returns the delta's spend entries, sorted by user: the
// current cumulative spend of every user the live stripes charged since
// the previous seal, or of every user in the ledger when a full ledger
// is due (a hook was just installed or ResendLedger was called). The
// coordinator's per-user max-merge rebuilds the same ledger from either.
// Caller holds t.mu exclusively, before the live epoch is replaced.
func (t *Tenant) sealSpendLocked() []wirebin.SpendEntry {
	if t.fullLedger.Swap(false) {
		ledger := t.acct.Export()
		spend := make([]wirebin.SpendEntry, 0, len(ledger))
		for u, eps := range ledger {
			spend = append(spend, wirebin.SpendEntry{User: u, Eps: eps})
		}
		slices.SortFunc(spend, func(a, b wirebin.SpendEntry) int { return strings.Compare(a.User, b.User) })
		return spend
	}
	n := 0
	for _, s := range t.live {
		for j := range s.shards {
			n += len(s.shards[j].touched)
		}
	}
	users := make([]string, 0, n)
	for _, s := range t.live {
		for j := range s.shards {
			users = append(users, s.shards[j].touched...)
		}
	}
	slices.Sort(users)
	users = slices.Compact(users)
	spend := make([]wirebin.SpendEntry, 0, len(users))
	for _, u := range users {
		// Users are recorded only once their charge is durable, so a
		// refunded charge is never listed; the guard still keeps a zero
		// spend, which the max-merge ignores, off the wire.
		if eps := t.acct.Spent(u); eps > 0 {
			spend = append(spend, wirebin.SpendEntry{User: u, Eps: eps})
		}
	}
	return spend
}

// ResendLedger makes the tenant's next seal ship its whole cumulative
// budget ledger instead of the users charged since the previous seal. A
// node calls it when a delta did not merge — dropped before sending,
// failed to encode or push, or answered late — so the users that delta
// carried reach the coordinator with the next one. Safe to call from
// any goroutine, including a seal hook.
func (t *Tenant) ResendLedger() { t.fullLedger.Store(true) }

// replaySeal re-applies a logged rotation during recovery: seal only, no
// estimation (the recovered window is estimated once at the end).
func (t *Tenant) replaySeal(seq uint64) {
	t.mu.Lock()
	t.sealLocked()
	t.seq = seq
	t.mu.Unlock()
}

func (t *Tenant) rotate() (*Snapshot, error) {
	t.mu.Lock()
	if t.st != nil {
		// The rotation record must be durable before the seal: its WAL
		// position splits ingest records into this epoch and the next, so
		// a crash after the append replays the seal at exactly this point.
		// A failed append aborts the rotation — the live epoch keeps
		// accumulating and the clock retries next epoch.
		lsn, err := t.st.AppendRotate(t.name, t.seq+1)
		if err != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
		t.walStart = lsn + 1
	}
	delta := t.sealLocked()
	hook := t.onSeal
	seq := t.seq
	window := append([]epochHist(nil), t.sealed...)
	t.mu.Unlock()
	t.met.rotations.Inc()
	t.lastRotate.Store(time.Now().UnixNano()) //dapvet:nondeterministic-ok epoch-age gauge, not estimate state
	if hook != nil && delta != nil {
		// Outside every lock: the hook (a node's delta pusher) may block
		// on the network without stalling ingest or other rotations.
		hook(delta)
	}

	snap, err := t.estimateWindow(window, nil, seq, false)
	if err != nil {
		return nil, err
	}
	// Rotations race only in the estimation phase (the seal above is
	// serialized): a slow wire-triggered rotation must not overwrite the
	// epoch clock's fresher snapshot, so publish only monotonically.
	for {
		old := t.cached.Load()
		if old != nil && old.Epoch >= snap.Epoch {
			break
		}
		if t.cached.CompareAndSwap(old, snap) {
			break
		}
	}
	return snap, nil
}

// Estimate returns a window estimate. With includeLive the unsealed live
// epoch is folded into the window and estimated on demand; otherwise the
// snapshot cached by the last successful rotation is returned.
func (t *Tenant) Estimate(includeLive bool) (*Snapshot, error) {
	if !includeLive {
		if snap := t.cached.Load(); snap != nil {
			return snap, nil
		}
		return nil, errors.New("stream: no sealed estimate yet (rotate first or request a live estimate)")
	}
	t.mu.RLock()
	window := append([]epochHist(nil), t.sealed...)
	liveHist := epochHist{
		counts: make([][]float64, len(t.groups)),
		sums:   make([]float64, len(t.groups)),
		ns:     make([]float64, len(t.groups)),
	}
	for i, s := range t.live {
		liveHist.counts[i] = make([]float64, t.bkt[i])
		liveHist.sums[i], liveHist.ns[i] = s.mergeLive(liveHist.counts[i])
	}
	seq := t.seq
	t.mu.RUnlock()
	return t.estimateWindow(window, &liveHist, seq, true)
}

// Cached returns the snapshot of the last successful rotation, nil if none.
func (t *Tenant) Cached() *Snapshot { return t.cached.Load() }

// LastRotation returns when the tenant last sealed a live epoch (zero
// before the first seal; replays during recovery do not count).
func (t *Tenant) LastRotation() time.Time {
	ns := t.lastRotate.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// estimateWindow merges the sealed window (plus the optional live epoch)
// into one histogram collection and runs the tenant's estimator through
// the unified EstimateHist surface. No locks are held: sealed epochs are
// immutable and the live epoch was copied.
func (t *Tenant) estimateWindow(window []epochHist, liveHist *epochHist, seq uint64, live bool) (*Snapshot, error) {
	h := len(t.groups)
	counts := make([][]float64, h)
	sums := make([]float64, h)
	var total float64
	for i := 0; i < h; i++ {
		counts[i] = make([]float64, t.bkt[i])
	}
	merge := func(eh *epochHist) {
		for i := 0; i < h; i++ {
			for b, c := range eh.counts[i] {
				counts[i][b] += c
			}
			sums[i] += eh.sums[i]
			total += eh.ns[i]
		}
	}
	for i := range window {
		merge(&window[i])
	}
	if liveHist != nil {
		merge(liveHist)
	}
	ctx := context.Background()
	if t.cfg.Warm {
		ctx = core.WithWarm(ctx, t.warm.Load())
	}
	start := time.Now() //dapvet:nondeterministic-ok duration metric, not estimate state
	res, err := t.est.EstimateHist(ctx,
		&core.HistCollection{Counts: counts, Sums: sums})
	t.met.estimateDur.Observe(time.Since(start).Seconds()) //dapvet:nondeterministic-ok duration metric, not estimate state
	if err != nil {
		return nil, err
	}
	t.met.warmHits.Add(uint64(res.WarmHits))
	if t.cfg.Warm && res.Warm != nil {
		t.warm.Store(res.Warm)
	}
	return &Snapshot{
		Tenant:  t.name,
		Task:    t.cfg.Spec.Task,
		Epoch:   seq,
		Live:    live,
		At:      time.Now(), //dapvet:nondeterministic-ok snapshot wall-clock stamp, not estimate state
		Reports: total,
		Result:  res,
	}, nil
}

// Status summarizes a tenant for monitoring.
type Status struct {
	// Name and Task identify the tenant.
	Name string
	Task core.TaskKind
	// Eps and Eps0 are the configured budgets.
	Eps, Eps0 float64
	// Scheme names the estimation scheme.
	Scheme string
	// Users is how many users have joined; Reporters how many have spent
	// budget.
	Users     int
	Reporters int
	// Epoch is the number of sealed epochs.
	Epoch uint64
	// GroupReports counts the reports per group currently in the window
	// (sealed window plus live epoch).
	GroupReports []float64
	// CachedEpoch is the epoch of the cached estimate (0 = none yet).
	CachedEpoch uint64
}

// Status returns a monitoring summary.
func (t *Tenant) Status() Status {
	st := Status{
		Name:   t.name,
		Task:   t.cfg.Spec.Task,
		Eps:    t.cfg.Spec.Eps,
		Eps0:   t.cfg.Spec.Eps0,
		Scheme: t.cfg.Spec.Scheme,
		Users:  t.Joined(),
	}
	st.Reporters = t.acct.Users()
	t.mu.RLock()
	st.Epoch = t.seq
	st.GroupReports = make([]float64, len(t.groups))
	for i := range t.groups {
		for e := range t.sealed {
			st.GroupReports[i] += t.sealed[e].ns[i]
		}
		st.GroupReports[i] += t.live[i].count()
	}
	t.mu.RUnlock()
	if snap := t.cached.Load(); snap != nil {
		st.CachedEpoch = snap.Epoch
	}
	return st
}

// Start launches the epoch clock when the configuration carries one
// (Window.Epoch > 0): the tenant rotates itself every epoch, keeping the
// cached estimate at most one epoch stale. Rotation errors (typically an
// empty window during warm-up) leave the previous cache in place. Start is
// a no-op for clockless tenants and when the clock already runs.
func (t *Tenant) Start() {
	if t.cfg.Window.Epoch <= 0 {
		return
	}
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(t.cfg.Window.Epoch)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_, _ = t.Rotate()
			}
		}
	}(t.stop, t.done)
}

// Stop halts the epoch clock (if running) and waits for it to exit.
func (t *Tenant) Stop() {
	t.clockMu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.clockMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
