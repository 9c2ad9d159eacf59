package stream

import (
	"fmt"
	"testing"

	"repro/internal/wirebin"
)

// Seal and merge layer benchmarks at a fixed shape: a node tenant whose
// ledger holds sealLedgerUsers users, sealActiveUsers of whom are
// charged in each measured epoch. Ids are 17 bytes, like the epoch-merge
// benchmark's.
const (
	sealLedgerUsers = 150_000
	sealActiveUsers = 10_000
)

// sealNode is one node tenant of the seal benchmarks: its ledger holds
// sealLedgerUsers users (prefix-numbered); every epoch charges each
// active user one report in its group, spreading them over all groups.
type sealNode struct {
	t      *Tenant
	active []string
	groups []int
	vals   [][]float64
	first  *EpochDelta // the seal after the hook install: the whole ledger
}

// newSealNode builds a node tenant whose ledger holds its idle users at
// a quarter of their budget, installs a seal hook and seals one charged
// epoch, so the hook install's full-ledger seal is behind it. Active
// users hold no spend between epochs: charge adds them to the ledger
// (sealLedgerUsers at seal time) and refund removes them again.
func newSealNode(b *testing.B, prefix string) *sealNode {
	b.Helper()
	cfg, err := ConfigFromSpec(coordSpec(Tumbling))
	if err != nil {
		b.Fatal(err)
	}
	t, err := NewTenant("t", cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := &sealNode{t: t}
	ledger := make(map[string]float64, sealLedgerUsers)
	for i := 0; i < sealLedgerUsers; i++ {
		u := fmt.Sprintf("%s-%015d", prefix, i)
		if i%(sealLedgerUsers/sealActiveUsers) != 0 {
			ledger[u] = 0.25
			continue
		}
		n.groups = append(n.groups, len(n.active)%len(t.groups))
		n.active = append(n.active, u)
		n.vals = append(n.vals, []float64{float64(i%5-2) / 10})
	}
	t.acct.Import(ledger)
	t.SetSealHook(func(*EpochDelta) {})
	n.charge(b)
	n.first = n.seal()
	n.refund()
	return n
}

// charge ingests one report from every active user.
func (n *sealNode) charge(b *testing.B) {
	for i, u := range n.active {
		if err := n.t.Ingest(u, n.groups[i], n.vals[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// refund rolls the active users' charges back, restoring the ledger for
// the next epoch.
func (n *sealNode) refund() {
	for i, u := range n.active {
		n.t.acct.Refund(u, n.t.groups[n.groups[i]].Eps, 1)
	}
}

// seal is Rotate's seal step without the window estimate or the hook.
func (n *sealNode) seal() *EpochDelta {
	n.t.mu.Lock()
	d := n.t.sealLocked()
	n.t.mu.Unlock()
	d.Node = "node"
	return d
}

// BenchmarkSealDelta: one node epoch's seal plus the delta encode.
func BenchmarkSealDelta(b *testing.B) {
	n := newSealNode(b, "u")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n.charge(b)
		b.StartTimer()
		frame, err := wirebin.EncodeDelta(n.seal())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(frame)), "delta-B")
		n.refund()
		b.StartTimer()
	}
}

// BenchmarkCoordinatorApply: two node deltas of one epoch through
// Coordinator.Apply, the second completing and publishing the epoch.
// The coordinator's ledger already holds both nodes' users.
func BenchmarkCoordinatorApply(b *testing.B) {
	nodes := []*sealNode{newSealNode(b, "a"), newSealNode(b, "b")}
	ids := []string{"a", "b"}
	c, err := NewCoordinator(CoordinatorConfig{Nodes: ids})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.AddTenantSpec("t", coordSpec(Tumbling)); err != nil {
		b.Fatal(err)
	}
	// The nodes' first epoch carried their whole ledgers; the coordinator
	// starts from that merged ledger.
	frames := make([][]byte, len(nodes))
	encode := func(i int, d *EpochDelta) {
		d.Node = ids[i]
		f, err := wirebin.EncodeDelta(d)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	for i, n := range nodes {
		encode(i, n.first)
	}
	for _, f := range frames {
		if _, err := c.Apply(f); err != nil {
			b.Fatal(err)
		}
	}
	if ledger, _ := c.Ledger("t"); len(ledger) != 2*sealLedgerUsers {
		b.Fatalf("coordinator ledger holds %d users, want %d", len(ledger), 2*sealLedgerUsers)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, n := range nodes {
			n.charge(b)
			encode(j, n.seal())
			n.refund()
		}
		b.StartTimer()
		for _, f := range frames {
			res, err := c.Apply(f)
			if err != nil || res.Status != "merged" {
				b.Fatalf("apply: %v %+v", err, res)
			}
		}
	}
}
