package stream_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
)

// ingestCollection replays a batch collection into a tenant: group g's
// reports are split into per-user batches of g.Reports values, exactly the
// granularity the protocol prescribes (each user reports 2^g times).
func ingestCollection(t *testing.T, tn *stream.Tenant, col *core.Collection, workers int) {
	t.Helper()
	type task struct {
		user   string
		group  int
		values []float64
	}
	var tasks []task
	for g, reports := range col.Groups {
		slots := tn.Groups()[g].Reports
		u := 0
		for lo := 0; lo < len(reports); lo += slots {
			hi := min(lo+slots, len(reports))
			tasks = append(tasks, task{"g" + itoa(g) + "u" + itoa(u), g, reports[lo:hi]})
			u++
		}
	}
	if workers <= 1 {
		for _, k := range tasks {
			if err := tn.Ingest(k.user, k.group, k.values); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan task)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ch {
				if err := tn.Ingest(k.user, k.group, k.values); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	for _, k := range tasks {
		ch <- k
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The engine-level histogram-equivalence invariant: a tenant fed the exact
// reports of a batch collection — one stripe, sequential ingest, per-group
// resolutions derived from the same population — produces the batch
// estimate bit for bit: the counts are the same integers, and the shard's
// running sum accumulates in the same order as stats.Sum over the flat
// collection.
func TestEngineEquivalenceBitForBit(t *testing.T) {
	const n = 1404
	sp := core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25), core.WithScheme(core.SchemeCEMFStar))
	d := buildAs[*core.DAP](t, sp)
	r := rng.New(9)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.7, 0.3)
	}
	col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}

	tn, err := stream.NewTenant("eq", stream.Config{
		Spec:          sp,
		ExpectedUsers: n, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCollection(t, tn, col, 1)
	snap, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	e := snap.Result
	if snap.Reports != float64(len(col.Groups[0])+len(col.Groups[1])+len(col.Groups[2])) {
		t.Fatalf("window lost reports: %v", snap.Reports)
	}
	if e.Mean != batch.Mean {
		t.Fatalf("mean: engine %v batch %v", e.Mean, batch.Mean)
	}
	if e.Gamma != batch.Gamma || e.PoisonedRight != batch.PoisonedRight {
		t.Fatalf("probe: engine (%v,%v) batch (%v,%v)", e.Gamma, e.PoisonedRight, batch.Gamma, batch.PoisonedRight)
	}
	for g := range batch.GroupMeans {
		if e.GroupMeans[g] != batch.GroupMeans[g] {
			t.Fatalf("group %d mean: engine %v batch %v", g, e.GroupMeans[g], batch.GroupMeans[g])
		}
		if e.Weights[g] != batch.Weights[g] {
			t.Fatalf("group %d weight differs", g)
		}
	}
}

// With striped shards and concurrent ingestion only the float summation
// order changes; counts stay identical integers, so per-group estimates
// must agree to 1e-12.
func TestEngineEquivalenceConcurrent(t *testing.T) {
	const n = 1404
	sp := core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar))
	d := buildAs[*core.DAP](t, sp)
	r := rng.New(10)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.7, 0.3)
	}
	col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := stream.NewTenant("eqc", stream.Config{
		Spec:          sp,
		ExpectedUsers: n, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCollection(t, tn, col, 4)
	snap, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	e := snap.Result
	if e.Gamma != batch.Gamma {
		t.Fatalf("gamma: engine %v batch %v (counts must be identical)", e.Gamma, batch.Gamma)
	}
	for g := range batch.GroupMeans {
		if diff := math.Abs(e.GroupMeans[g] - batch.GroupMeans[g]); diff > 1e-12 {
			t.Fatalf("group %d mean differs by %g", g, diff)
		}
	}
	if diff := math.Abs(e.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("mean differs by %g", diff)
	}
}

// Rotation must preserve the sufficient statistic: reports ingested across
// several epochs estimate identically (sliding window spanning them all)
// to the same reports in one epoch — counts exactly, sums up to the
// re-association of float addition across epoch boundaries.
func TestEquivalenceAcrossEpochs(t *testing.T) {
	const n = 903
	sp := core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar))
	d := buildAs[*core.DAP](t, sp)
	r := rng.New(12)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.5, 0.5)
	}
	col, err := d.Collect(r, values, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := stream.NewTenant("ep", stream.Config{
		Spec:          sp,
		ExpectedUsers: n, Shards: 1,
		Window: stream.WindowConfig{Mode: stream.Sliding, Span: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Split each group's reports over three epochs at user granularity.
	for g, reports := range col.Groups {
		slots := tn.Groups()[g].Reports
		u := 0
		for lo := 0; lo < len(reports); lo += slots {
			hi := min(lo+slots, len(reports))
			if err := tn.Ingest("g"+itoa(g)+"u"+itoa(u), g, reports[lo:hi]); err != nil {
				t.Fatal(err)
			}
			u++
			if u%100 == 0 {
				// Mid-stream rotations while later groups are still empty
				// seal the epoch but cannot estimate yet; that is expected.
				_, _ = tn.Rotate()
			}
		}
	}
	snap, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Result.Gamma != batch.Gamma {
		t.Fatalf("epoch-split gamma %v != batch %v (counts must merge exactly)", snap.Result.Gamma, batch.Gamma)
	}
	if diff := math.Abs(snap.Result.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("epoch-split mean differs by %g", diff)
	}
}
