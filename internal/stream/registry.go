package stream

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// tenantName constrains names to something URL-path and log friendly.
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// Registry hosts many concurrent tenants in one process. Creation starts a
// tenant's epoch clock; deletion stops it. A registry built by Recover is
// durable: tenant lifecycle events are WAL-logged and StartSnapshots cuts
// periodic full snapshots (see durable.go).
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant

	// st is the durability layer, nil for an ephemeral registry.
	st *store.Store

	// sealHook, when set, is installed on every current and future
	// tenant (see SetSealHook).
	sealHook func(*EpochDelta)

	snapCtl  sync.Mutex
	stopSnap chan struct{}
	snapDone chan struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*Tenant)}
}

// Create builds, registers and starts a tenant. It fails when the name is
// invalid or already taken.
func (r *Registry) Create(name string, cfg Config) (*Tenant, error) {
	if !tenantName.MatchString(name) {
		return nil, fmt.Errorf("stream: invalid tenant name %q", name)
	}
	t, err := NewTenant(name, cfg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.tenants[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("stream: tenant %q already exists", name)
	}
	if r.st != nil {
		// The creation must be durable before the tenant is published:
		// the logged spec is what recreates the tenant on recovery, so a
		// failed append rejects the creation outright.
		specJSON, err := json.Marshal(t.Spec())
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		lsn, err := r.st.AppendTenantCreate(name, specJSON)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
		t.st = r.st
		t.walStart = lsn + 1
		t.acctFrom = lsn + 1
	}
	if r.sealHook != nil {
		// t is not yet published, so no lock is needed; its ledger is
		// empty, so the charged-user tracking covers it from the start.
		t.onSeal = r.sealHook
	}
	// Start the clock while still holding the lock: a concurrent Delete
	// can only observe the tenant after it is published, so its Stop
	// always lands after (never between) the start.
	t.Start()
	r.tenants[name] = t
	r.mu.Unlock()
	return t, nil
}

// CreateSpec builds, registers and starts a tenant directly from a task
// spec, honouring its Serve section.
func (r *Registry) CreateSpec(name string, sp core.Spec) (*Tenant, error) {
	cfg, err := ConfigFromSpec(sp)
	if err != nil {
		return nil, err
	}
	return r.Create(name, cfg)
}

// Get returns the named tenant.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	t, ok := r.tenants[name]
	r.mu.RUnlock()
	return t, ok
}

// Delete unregisters the named tenant and stops its epoch clock. It
// reports whether the tenant existed. The deletion is WAL-logged best
// effort: if the store is down the tenant still disappears from this
// process but reappears on recovery.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	t, ok := r.tenants[name]
	delete(r.tenants, name)
	if ok && r.st != nil {
		_, _ = r.st.AppendTenantDelete(name)
	}
	r.mu.Unlock()
	if ok {
		t.Stop()
		dropTenantMetrics(name)
	}
	return ok
}

// List returns all tenants sorted by name.
func (r *Registry) List() []*Tenant {
	r.mu.RLock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// Close stops the snapshot loop and every tenant's epoch clock, then —
// for a durable registry — drains one final snapshot so a clean shutdown
// restarts from a snapshot instead of a long WAL replay. The registry
// remains usable; Close exists for collector shutdown. The store itself
// stays open (its lifetime belongs to whoever opened it).
func (r *Registry) Close() {
	r.snapCtl.Lock()
	stop, done := r.stopSnap, r.snapDone
	r.stopSnap, r.snapDone = nil, nil
	r.snapCtl.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, t := range r.List() {
		t.Stop()
	}
	if r.st != nil {
		_ = r.Snapshot()
	}
}
