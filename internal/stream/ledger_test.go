package stream

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wirebin"
)

// sealCapture installs a seal hook on tn that collects every delta.
func sealCapture(tn *Tenant) *[]*EpochDelta {
	var got []*EpochDelta
	tn.SetSealHook(func(d *EpochDelta) { got = append(got, d) })
	return &got
}

// spendOf turns a delta's spend list into a user → spend-bits map,
// failing on an unsorted or duplicated list.
func spendOf(t *testing.T, d *EpochDelta) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64, len(d.Spend))
	for i, e := range d.Spend {
		if i > 0 && d.Spend[i-1].User >= e.User {
			t.Fatalf("delta spend not strictly sorted at %d: %q then %q", i, d.Spend[i-1].User, e.User)
		}
		out[e.User] = math.Float64bits(e.Eps)
	}
	return out
}

// ledgerBits is a ledger as user → spend bits, for exact comparison.
func ledgerBits(m map[string]float64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for u, eps := range m {
		out[u] = math.Float64bits(eps)
	}
	return out
}

// spendsOf is the expected delta spend of users: their current ledger
// entries, bit for bit.
func spendsOf(tn *Tenant, users ...string) map[string]uint64 {
	out := make(map[string]uint64, len(users))
	for _, u := range users {
		out[u] = math.Float64bits(tn.Accountant().Spent(u))
	}
	return out
}

func openTestRegistry(t *testing.T, dir string, flaky *store.Flaky) (*Registry, *store.Store) {
	t.Helper()
	opts := store.Options{Sync: store.SyncOS}
	if flaky != nil {
		opts.FS = flaky
	}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	return reg, st
}

// TestSealDeltaCarriesChargedUsers: a node's delta lists exactly the
// users charged since the previous seal, with their cumulative spend.
// A user charged twice appears once, a charge the store refused is
// absent, and a seal without ingest lists nobody.
func TestSealDeltaCarriesChargedUsers(t *testing.T) {
	flaky := store.NewFlaky(nil)
	reg, st := openTestRegistry(t, t.TempDir(), flaky)
	defer st.Close()
	tn, err := reg.CreateSpec("t", coordSpec(Tumbling))
	if err != nil {
		t.Fatal(err)
	}
	g1 := tn.groups[1]
	if g1.Reports < 2 {
		t.Fatalf("group 1 accepts %d reports; the test needs two charges of one user", g1.Reports)
	}
	full := func(g int) []float64 { return make([]float64, tn.groups[g].Reports) }
	deltas := sealCapture(tn)

	// Epoch 1: the first seal after the install ships the whole ledger.
	if err := tn.Ingest("pre", 0, full(0)); err != nil {
		t.Fatal(err)
	}
	_, _ = tn.Rotate()
	if got, want := spendOf(t, (*deltas)[0]), ledgerBits(tn.Accountant().Export()); !reflect.DeepEqual(got, want) {
		t.Fatalf("first delta after install: %v, want the whole ledger %v", got, want)
	}

	// Epoch 2: "a" charged in two batches, "b" by batch, "d" by single
	// ingest; "c" only in a batch the store refuses.
	for _, batch := range [][]BatchEntry{
		{{User: "a", Group: 1, Values: []float64{0}}, {User: "b", Group: 0, Values: full(0)}},
		{{User: "a", Group: 1, Values: []float64{0}}},
	} {
		for i, err := range tn.IngestBatch(batch) {
			if err != nil {
				t.Fatalf("batch entry %d: %v", i, err)
			}
		}
	}
	if err := tn.Ingest("d", 0, full(0)); err != nil {
		t.Fatal(err)
	}
	flaky.FailWrites(1, false, true)
	for _, err := range tn.IngestBatch([]BatchEntry{{User: "c", Group: 0, Values: full(0)}}) {
		if !errors.Is(err, ErrStoreDown) {
			t.Fatalf("ingest with the store down: %v, want ErrStoreDown", err)
		}
	}
	flaky.Heal()
	if spent := tn.Accountant().Spent("c"); spent != 0 {
		t.Fatalf("refused batch left spend %v", spent)
	}
	_, _ = tn.Rotate()
	got := spendOf(t, (*deltas)[1])
	if want := spendsOf(tn, "a", "b", "d"); !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch 2 delta spend %v, want %v", got, want)
	}
	if a := math.Float64frombits(got["a"]); a != 2*g1.Eps {
		t.Fatalf("twice-charged user ships spend %v, want the cumulative %v", a, 2*g1.Eps)
	}

	// Epoch 3: no ingest, nobody charged.
	_, _ = tn.Rotate()
	if n := len((*deltas)[2].Spend); n != 0 {
		t.Fatalf("seal without ingest ships %d spends, want 0", n)
	}
}

// TestSealHookInstallShipsFullLedger: a recovered tenant's charges were
// replayed before any hook existed, so the first delta after the
// install carries the whole ledger; the next one only the users charged
// in between.
func TestSealHookInstallShipsFullLedger(t *testing.T) {
	dir := t.TempDir()
	reg, st := openTestRegistry(t, dir, nil)
	tn, err := reg.CreateSpec("t", coordSpec(Tumbling))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, tn.groups[0].Reports)
	for i := 0; i < 6; i++ {
		if err := tn.Ingest("old"+strconv.Itoa(i), 0, vals); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = tn.Rotate()
	if err := tn.Ingest("unsealed", 0, vals); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg, st = openTestRegistry(t, dir, nil)
	defer st.Close()
	tn, ok := reg.Get("t")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	var deltas []*EpochDelta
	reg.SetSealHook(func(d *EpochDelta) { deltas = append(deltas, d) })
	if err := tn.Ingest("new1", 0, vals); err != nil {
		t.Fatal(err)
	}
	_, _ = tn.Rotate()
	want := ledgerBits(tn.Accountant().Export())
	if len(want) != 8 {
		t.Fatalf("recovered ledger holds %d users, want 8", len(want))
	}
	if got := spendOf(t, deltas[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("first delta after install: %v, want the whole ledger %v", got, want)
	}
	if err := tn.Ingest("new2", 0, vals); err != nil {
		t.Fatal(err)
	}
	_, _ = tn.Rotate()
	if got, want := spendOf(t, deltas[1]), spendsOf(tn, "new2"); !reflect.DeepEqual(got, want) {
		t.Fatalf("second delta: %v, want only the charged user %v", got, want)
	}
}

// TestLedgerHealsAfterDroppedDelta: with stripe-disjoint nodes, one
// delta is dropped before it is sent and another is answered late after
// a quorum publish. Each loses its users' spends; ResendLedger makes the
// node's next delta carry its whole ledger, and after that epoch the
// coordinator's ledger equals the single-node reference bit for bit.
func TestLedgerHealsAfterDroppedDelta(t *testing.T) {
	cfg, err := ConfigFromSpec(coordSpec(Sliding))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewTenant("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b"}
	nodes := make([]*Tenant, len(ids))
	sealed := make([]*EpochDelta, len(ids))
	for i := range nodes {
		if nodes[i], err = NewTenant("t", cfg); err != nil {
			t.Fatal(err)
		}
		i := i
		nodes[i].SetSealHook(func(d *EpochDelta) {
			d.Node = ids[i]
			sealed[i] = d
		})
	}
	c, err := NewCoordinator(CoordinatorConfig{Nodes: ids, Quorum: 1, Straggler: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTenantSpec("t", coordSpec(Sliding)); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	quorumPublish := func() {
		now = now.Add(2 * time.Minute)
		c.Tick()
	}
	apply := func(n int) string {
		t.Helper()
		frame, err := wirebin.EncodeDelta(sealed[n])
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Apply(frame)
		if err != nil {
			t.Fatal(err)
		}
		return res.Status
	}

	// Every round charges fresh users in every group, and the "rep" users
	// of the last group once per round, so later deltas must carry spends
	// that accumulated across the lost epochs.
	last := len(ref.groups) - 1
	if r := ref.groups[last].Reports; r < 3 {
		t.Fatalf("group %d accepts %d reports; the test charges its users three times", last, r)
	}
	round := func(r int) {
		t.Helper()
		ingest := func(user string, g int, vals []float64) {
			if err := ref.Ingest(user, g, vals); err != nil {
				t.Fatal(err)
			}
			if err := nodes[StripeOf(user, ref.Shards())%len(nodes)].Ingest(user, g, vals); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			for g := range ref.groups {
				ingest("u"+strconv.Itoa(i)+"g"+strconv.Itoa(g)+"r"+strconv.Itoa(r), g,
					make([]float64, ref.groups[g].Reports))
			}
			ingest("rep"+strconv.Itoa(i), last, []float64{0})
		}
		for _, n := range nodes {
			_, _ = n.Rotate()
		}
		_, _ = ref.Rotate()
	}

	// Epoch 1: node b's delta is dropped before it is sent.
	round(1)
	if s := apply(0); s != "merged" {
		t.Fatalf("epoch 1 node a: %s", s)
	}
	nodes[1].ResendLedger()
	quorumPublish()

	// Epoch 2: node b reports, node a's delta arrives after the quorum
	// publish and is answered late.
	round(2)
	if s := apply(1); s != "merged" {
		t.Fatalf("epoch 2 node b: %s", s)
	}
	quorumPublish()
	if s := apply(0); s != "late" {
		t.Fatalf("epoch 2 node a after the quorum publish: %s, want late", s)
	}
	nodes[0].ResendLedger()
	ledger, err := c.Ledger("t")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ledgerBits(ledger), ledgerBits(ref.Accountant().Export())) {
		t.Fatal("the late delta lost nothing; the test exercises no healing")
	}

	// Epoch 3: both deltas merge; node a's carries its whole ledger.
	round(3)
	for n := range nodes {
		if s := apply(n); s != "merged" {
			t.Fatalf("epoch 3 node %s: %s", ids[n], s)
		}
	}
	ledger, err = c.Ledger("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerBits(ledger), ledgerBits(ref.Accountant().Export()); !reflect.DeepEqual(got, want) {
		t.Fatalf("healed ledger differs from the single-node reference: %d vs %d users", len(got), len(want))
	}
}

// TestLedgerSweepChunksLargeLedger: a node ledger larger than one delta
// frame ships in sorted chunks over successive seals, each delta
// encodable. Users charged mid-sweep ride along; a delta lost mid-sweep
// plus ResendLedger restarts the sweep; once it wraps, the coordinator's
// max-merged ledger equals the node's and deltas carry only the charged
// users again.
func TestLedgerSweepChunksLargeLedger(t *testing.T) {
	cfg, err := ConfigFromSpec(coordSpec(Tumbling))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{Nodes: []string{"a"}, Straggler: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTenantSpec("t", coordSpec(Tumbling)); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	// 200-byte ids: 100k users are about 21 MB of delta entries, more
	// than one frame holds.
	const users = 100_000
	id := func(i int) string { return fmt.Sprintf("%0200d", i) }
	if users*(200+10) <= wirebin.MaxDeltaBytes {
		t.Fatal("the ledger fits one frame; the test exercises no chunking")
	}
	ledger := make(map[string]float64, users)
	for i := 0; i < users; i++ {
		ledger[id(i)] = 0.25
	}
	tn.acct.Restore(ledger, nil)
	var d *EpochDelta
	tn.SetSealHook(func(x *EpochDelta) { x.Node = "a"; d = x })
	// seal rotates the node and encodes its delta; merge also applies it
	// and lets the coordinator publish past any gap.
	seal := func(merge bool) map[string]uint64 {
		t.Helper()
		_, _ = tn.Rotate()
		frame, err := wirebin.EncodeDelta(d)
		if err != nil {
			t.Fatalf("delta of epoch %d (%d spends) does not encode: %v", d.Epoch, len(d.Spend), err)
		}
		if merge {
			if res, err := c.Apply(frame); err != nil || res.Status != "merged" {
				t.Fatalf("apply epoch %d: %+v, %v", d.Epoch, res, err)
			}
			now = now.Add(2 * time.Minute)
			c.Tick()
		}
		return spendOf(t, d)
	}
	last := len(tn.groups) - 1
	charge := func(user string, g int, vals []float64) {
		t.Helper()
		if err := tn.Ingest(user, g, vals); err != nil {
			t.Fatal(err)
		}
	}

	first := seal(true)
	if len(first) == 0 || len(first) == users {
		t.Fatalf("first sweep delta ships %d of %d users, want one chunk", len(first), users)
	}
	// Epoch 2 charges a swept user, an unswept one and a new one, and
	// its delta is lost.
	charge(id(0), last, []float64{0})
	charge(id(users-1), last, []float64{0})
	charge("new", 0, make([]float64, tn.groups[0].Reports))
	got := seal(false)
	for _, u := range []string{id(0), id(users - 1), "new"} {
		if _, ok := got[u]; !ok {
			t.Fatalf("mid-sweep delta lacks charged user %.12s…", u)
		}
	}
	tn.ResendLedger()
	deltas := 0
	for tn.sweep != nil || deltas == 0 {
		if deltas++; deltas > 20 {
			t.Fatal("sweep did not wrap in 20 seals")
		}
		seal(true)
	}
	if deltas < 2 {
		t.Fatalf("restarted sweep took %d delta(s), want several chunks", deltas)
	}
	merged, err := c.Ledger("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerBits(merged), ledgerBits(tn.Accountant().Export()); !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator ledger after the sweep: %d users, want the node's %d", len(got), len(want))
	}
	charge(id(7), last, []float64{0})
	if got, want := seal(true), spendsOf(tn, id(7)); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta after the sweep ships %d users, want only the charged one", len(got))
	}
}

// TestLedgerSweepLeavesRoomForChargedUsers: a sweep chunk fills only
// what the frame limit leaves after the epoch's charged users, so a seal
// that charged many users mid-sweep still ships one encodable delta
// carrying all of them, and the sweep's deltas together still carry the
// whole ledger.
func TestLedgerSweepLeavesRoomForChargedUsers(t *testing.T) {
	cfg, err := ConfigFromSpec(coordSpec(Tumbling))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 200-byte ids: the 100k-user ledger is about 21 MB of delta
	// entries, the 70k users charged in the first epoch about 14.7 MB —
	// less than a frame, but not with a quarter-frame chunk on top.
	const users, charged = 100_000, 70_000
	id := func(prefix string, i int) string { return fmt.Sprintf("%s%0199d", prefix, i) }
	ledger := make(map[string]float64, users)
	for i := 0; i < users; i++ {
		ledger[id("a", i)] = 0.25
	}
	tn.acct.Restore(ledger, nil)
	var d *EpochDelta
	tn.SetSealHook(func(x *EpochDelta) { x.Node = "a"; d = x })
	last := len(tn.groups) - 1
	for i := 0; i < charged; i++ {
		if err := tn.Ingest(id("b", i), last, []float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	merged := make(map[string]float64)
	for deltas := 0; deltas == 0 || tn.sweep != nil; deltas++ {
		if deltas > 20 {
			t.Fatal("sweep did not wrap in 20 seals")
		}
		_, _ = tn.Rotate()
		if _, err := wirebin.EncodeDelta(d); err != nil {
			t.Fatalf("delta %d (%d spends) does not encode: %v", deltas, len(d.Spend), err)
		}
		got := spendOf(t, d)
		if deltas == 0 {
			for i := 0; i < charged; i++ {
				if _, ok := got[id("b", i)]; !ok {
					t.Fatalf("first delta lacks charged user %d", i)
				}
			}
			if len(got) == charged {
				t.Fatal("first delta carries no sweep chunk")
			}
		}
		for _, e := range d.Spend {
			merged[e.User] = max(merged[e.User], e.Eps)
		}
	}
	if got, want := ledgerBits(merged), ledgerBits(tn.Accountant().Export()); !reflect.DeepEqual(got, want) {
		t.Fatalf("the sweep's deltas merge to %d users, want the node's %d", len(got), len(want))
	}
}
