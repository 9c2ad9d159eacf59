// Package privacy provides a per-user privacy-budget accountant enforcing
// the composition rules that DAP's grouping relies on: sequential
// composition (budgets of repeated reports on the same value add up) and
// the per-user cap ε. The simulator uses it to assert that every user —
// whichever group they land in — spends exactly the advertised budget; the
// streaming collector consults it on every ingested report, binding the
// user to its group in the same ledger row, so the ledger is striped by
// user hash to keep concurrent spends from serializing on one lock.
package privacy

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
)

// ErrBudgetExceeded is returned when a spend would push a user past cap.
var ErrBudgetExceeded = errors.New("privacy: budget exceeded")

// ErrWrongGroup is returned by BindSpendN when the user is already bound
// to a different group than the one charged.
var ErrWrongGroup = errors.New("privacy: user belongs to another group")

// stripes is the number of independent ledger shards. Spends for different
// users hash to different stripes and proceed concurrently; 64 keeps the
// collision probability low for any realistic ingest worker count.
const stripes = 64

// spendTol absorbs floating-point drift so that h reports of ε/h compose
// to exactly ε.
const spendTol = 1e-9

// entry is one user's ledger row: cumulative spend and group binding.
// DAP's sequential composition makes this the whole per-user state a
// collector keeps — which group the user reports in and how much of ε
// that group has used — so binding and charging touch one map slot.
type entry struct {
	spent float64
	// group is the bound group plus one; 0 means unbound (a user charged
	// through SpendN, which knows no groups).
	group int32
}

// ledgerStripe is one shard of the ledger, padded to a full cache line
// (8B mutex + 8B map header + 8B count + 40B pad = 64B) so adjacent
// stripes don't false-share under concurrent spends. spenders counts
// the rows with a positive spend: a row bound by a join (or left by a
// refund) but never charged holds a binding, not a ledger entry, and
// stays out of Users and Export.
type ledgerStripe struct {
	mu       sync.Mutex
	rows     map[string]entry
	spenders int
	_        [40]byte
}

// set stores row e of user id with its spend replaced by spent (clamped
// at zero), keeping the spender count in step. A row that drops to zero
// keeps its binding; an unbound one disappears. Caller holds p.mu.
func (p *ledgerStripe) set(id string, e entry, spent float64) {
	spent = max(spent, 0)
	switch {
	case spent > 0 && e.spent == 0:
		p.spenders++
	case spent == 0 && e.spent > 0:
		p.spenders--
	}
	e.spent = spent
	if spent == 0 && e.group == 0 {
		delete(p.rows, id)
		return
	}
	p.rows[id] = e
}

// Accountant tracks per-user spent budget against a common cap, together
// with each user's group binding. It is safe for concurrent use;
// operations on different users mostly proceed without contention.
type Accountant struct {
	cap  float64
	seed maphash.Seed
	part [stripes]ledgerStripe
}

// NewAccountant creates an accountant with the given per-user cap ε.
func NewAccountant(cap float64) (*Accountant, error) {
	if cap <= 0 {
		return nil, errors.New("privacy: cap must be positive")
	}
	a := &Accountant{cap: cap, seed: maphash.MakeSeed()}
	for i := range a.part {
		a.part[i].rows = make(map[string]entry)
	}
	return a, nil
}

// Cap returns the per-user budget cap.
func (a *Accountant) Cap() float64 {
	return a.cap
}

func (a *Accountant) stripe(id string) *ledgerStripe {
	return &a.part[maphash.String(a.seed, id)&(stripes-1)]
}

// checkSpend validates a spend request's arguments.
func checkSpend(eps float64, n int) error {
	if eps <= 0 {
		return errors.New("privacy: spend must be positive")
	}
	if n <= 0 {
		return errors.New("privacy: spend count must be positive")
	}
	return nil
}

// Spend records eps of budget consumption for user id, applying
// sequential composition. It fails without recording when the spend would
// exceed the cap.
func (a *Accountant) Spend(id string, eps float64) error {
	return a.SpendN(id, eps, 1)
}

// SpendN atomically records n spends of eps each for user id. Either the
// whole batch fits under the cap and is recorded, or nothing is: a
// multi-report upload can never burn part of a user's budget and then be
// rejected, and no concurrent interleaving can overspend. SpendN neither
// checks nor sets a group binding.
func (a *Accountant) SpendN(id string, eps float64, n int) error {
	if err := checkSpend(eps, n); err != nil {
		return err
	}
	total := eps * float64(n)
	p := a.stripe(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.rows[id]
	if e.spent+total > a.cap+spendTol {
		return fmt.Errorf("%w: user %s at %.6g of %.6g, requested %.6g",
			ErrBudgetExceeded, id, e.spent, a.cap, total)
	}
	p.set(id, e, e.spent+total)
	return nil
}

// BindSpendN is SpendN for a user who reports in group: under one stripe
// lock it checks the user's binding (an unbound user is bound to group,
// a user bound elsewhere is rejected with ErrWrongGroup) and charges n
// spends of eps. A rejected call changes nothing.
func (a *Accountant) BindSpendN(id string, group int, eps float64, n int) error {
	if err := checkSpend(eps, n); err != nil {
		return err
	}
	total := eps * float64(n)
	p := a.stripe(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.rows[id]
	if e.group != 0 && int(e.group-1) != group {
		return fmt.Errorf("%w: user %s is bound to group %d", ErrWrongGroup, id, e.group-1)
	}
	if e.spent+total > a.cap+spendTol {
		return fmt.Errorf("%w: user %s at %.6g of %.6g, requested %.6g",
			ErrBudgetExceeded, id, e.spent, a.cap, total)
	}
	e.group = int32(group) + 1
	p.set(id, e, e.spent+total)
	return nil
}

// ForceBindSpendN is BindSpendN for WAL replay: it binds an unbound user
// to group, keeps an existing binding, and records n spends of eps
// without the cap check (n = 0 binds only). A logged charge was already
// admitted under the cap before it was written, so re-applying it must
// not re-ask — otherwise float drift or a tightened cap could silently
// drop acked spend and break budget monotonicity across recovery.
func (a *Accountant) ForceBindSpendN(id string, group int, eps float64, n int) {
	p := a.stripe(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.rows[id]
	if e.group != 0 && n == 0 {
		return // bound already, nothing to charge: no map write
	}
	if e.group == 0 {
		e.group = int32(group) + 1
	}
	p.set(id, e, e.spent+eps*float64(n))
}

// Bind records group as user id's binding, replacing any previous one
// and keeping the user's spend: a join handing out the user, or a
// recovered snapshot restoring it.
func (a *Accountant) Bind(id string, group int) {
	p := a.stripe(id)
	p.mu.Lock()
	e := p.rows[id]
	e.group = int32(group) + 1
	p.rows[id] = e
	p.mu.Unlock()
}

// Spent returns the budget consumed by user id so far.
func (a *Accountant) Spent(id string) float64 {
	p := a.stripe(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rows[id].spent
}

// Remaining returns the budget user id may still spend.
func (a *Accountant) Remaining(id string) float64 {
	r := a.cap - a.Spent(id)
	if r < 0 {
		return 0
	}
	return r
}

// Refund returns n spends of eps to user id, clamping at zero. It exists
// for the durable ingest path: a charge whose WAL append fails is rolled
// back so the rejected request leaves no trace in the ledger. The user's
// group binding stays, as it would after any rejected report.
func (a *Accountant) Refund(id string, eps float64, n int) {
	p := a.stripe(id)
	p.mu.Lock()
	if e, ok := p.rows[id]; ok {
		p.set(id, e, e.spent-eps*float64(n))
	}
	p.mu.Unlock()
}

// Export copies the ledger: per-user consumed budget of every user with
// a positive spend. Snapshots persist it and Restore restores it.
func (a *Accountant) Export() map[string]float64 {
	out := make(map[string]float64, a.Users())
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for id, e := range p.rows {
			if e.spent > 0 {
				out[id] = e.spent
			}
		}
		p.mu.Unlock()
	}
	return out
}

// AppendUsers appends to dst the id of every user with a positive spend
// (the keys of Export, unordered) and returns the extended slice.
func (a *Accountant) AppendUsers(dst []string) []string {
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for id, e := range p.rows {
			if e.spent > 0 {
				dst = append(dst, id)
			}
		}
		p.mu.Unlock()
	}
	return dst
}

// Restore installs an exported ledger (Export) and bindings
// (ExportGroups) into an empty accountant, one row per user. Each
// stripe's map is sized for its share of the users up front, so a
// recovery restoring millions of users never rehashes.
func (a *Accountant) Restore(spent map[string]float64, groups map[string]int) {
	n := max(len(spent), len(groups)) / stripes
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		// Headroom for the hash's spread over stripes (σ ≈ √n).
		p.rows = make(map[string]entry, n+n/16+64)
		p.spenders = 0
		p.mu.Unlock()
	}
	bound := 0 // spenders among the bound users
	for id, g := range groups {
		p := a.stripe(id)
		p.mu.Lock()
		v, ok := spent[id]
		p.set(id, entry{group: int32(g) + 1}, v)
		p.mu.Unlock()
		if ok {
			bound++
		}
	}
	if bound == len(spent) {
		return
	}
	for id, v := range spent {
		if _, ok := groups[id]; !ok {
			p := a.stripe(id)
			p.mu.Lock()
			p.set(id, entry{}, v)
			p.mu.Unlock()
		}
	}
}

// ExportGroups copies every group binding, including those of users who
// joined but never spent. Snapshots persist it and Restore restores it.
func (a *Accountant) ExportGroups() map[string]int {
	out := make(map[string]int)
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for id, e := range p.rows {
			if e.group != 0 {
				out[id] = int(e.group) - 1
			}
		}
		p.mu.Unlock()
	}
	return out
}

// TotalSpent sums consumed budget across all users — the scalar the
// recovery monotonicity check compares across a crash.
func (a *Accountant) TotalSpent() float64 {
	var sum float64
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for _, e := range p.rows {
			sum += e.spent
		}
		p.mu.Unlock()
	}
	return sum
}

// Users returns the number of users with recorded spends.
func (a *Accountant) Users() int {
	var n int
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		n += p.spenders
		p.mu.Unlock()
	}
	return n
}

// Stats returns the number of users with recorded spends and their total
// consumed budget in one ledger pass — the pair the metrics scrape needs,
// taken under each stripe lock once instead of twice (Users+TotalSpent).
func (a *Accountant) Stats() (users int, spent float64) {
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		users += p.spenders
		for _, e := range p.rows {
			spent += e.spent
		}
		p.mu.Unlock()
	}
	return users, spent
}

// Exhausted reports whether user id has depleted the cap (within
// tolerance), i.e. reported the full number of times their group demands.
func (a *Accountant) Exhausted(id string) bool {
	return a.Spent(id) >= a.cap-spendTol
}
