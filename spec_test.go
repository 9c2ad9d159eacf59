package dap

// Task-spec API tests: JSON round-trip fidelity (marshal → unmarshal →
// Build estimates bit-identically to outputs recorded from the reference
// protocol constructors, for every task kind), validation error taxonomy,
// and the end-to-end acceptance invariant — one JSON spec powering batch
// estimation, a stream tenant and the wire API with equal results.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/transport"
)

// roundTrip marshals and unmarshals a spec through JSON.
func roundTrip(t *testing.T, sp core.Spec) core.Spec {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ParseSpec(data)
	if err != nil {
		t.Fatalf("round-trip of %s: %v", data, err)
	}
	return got
}

// buildAs builds the spec of task and opts and returns its estimator as
// T (a concrete protocol type or a simulation interface).
func buildAs[T any](t testing.TB, task Option, opts ...Option) T {
	t.Helper()
	est, err := Build(NewSpec(task, opts...))
	if err != nil {
		t.Fatal(err)
	}
	return est.(T)
}

func testValues(seed uint64, n int) []float64 {
	r := rng.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = stats.Clamp(rng.Normal(r, -0.3, 0.25), -1, 1)
	}
	return vals
}

// recorded is an estimate pinned bit for bit (math.Float64bits): the
// output of the reference protocol constructors that preceded Build, on
// the same seeds. The round-trip tests assert Build reproduces it
// exactly.
type recorded struct {
	mean, gamma         uint64
	right               bool
	groupMeans, weights []uint64
}

// checkBits fails unless got is the float whose bits are want.
func checkBits(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Fatalf("%s = %v (%#016x), recorded %v (%#016x)",
			name, got, math.Float64bits(got), math.Float64frombits(want), want)
	}
}

func (want recorded) check(t *testing.T, got *core.Result) {
	t.Helper()
	checkBits(t, "mean", got.Mean, want.mean)
	checkBits(t, "gamma", got.Gamma, want.gamma)
	if got.PoisonedRight != want.right {
		t.Fatalf("poisoned side right=%v, recorded %v", got.PoisonedRight, want.right)
	}
	if len(got.GroupMeans) != len(want.groupMeans) || len(got.Weights) != len(want.weights) {
		t.Fatalf("%d group means / %d weights, recorded %d / %d",
			len(got.GroupMeans), len(got.Weights), len(want.groupMeans), len(want.weights))
	}
	for g := range want.groupMeans {
		checkBits(t, "group mean "+strconv.Itoa(g), got.GroupMeans[g], want.groupMeans[g])
		checkBits(t, "weight "+strconv.Itoa(g), got.Weights[g], want.weights[g])
	}
}

// TestSpecRoundTripMean: a JSON-round-tripped mean spec estimates its own
// collection bit-identically to the recorded reference DAP output.
func TestSpecRoundTripMean(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeCEMFStar),
		core.WithEMFMaxIter(80)))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	col, err := est.(core.Collector).Collect(rng.New(5), testValues(4, 1500),
		attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	recorded{
		mean: 0xbfd8b6e428e0dd23, gamma: 0x3fc9ddc4405743ea, right: true,
		groupMeans: []uint64{0xbfdb867cde588a29, 0xbfcc5b0556167110, 0xbfd52a7e3408a6a6},
		weights:    []uint64{0x3fe879bcd770f3b9, 0x3fc818d8aba0554a, 0x3fa800cfda6f6f40},
	}.check(t, got)
}

// TestSpecRoundTripDistribution: same invariant for the SW variant; the
// reconstructed histogram is pinned by length and an FNV-1a hash of its
// float bits.
func TestSpecRoundTripDistribution(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.DistributionTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80)))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(6, 1200)
	for i, v := range vals {
		vals[i] = (v + 1) / 2
	}
	col, err := est.(core.Collector).Collect(rng.New(7), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	recorded{
		mean: 0x3fdead6d05d9da94, gamma: 0x3fc2178777af6e1a, right: true,
		groupMeans: []uint64{0x3fe0a3baef754040, 0x3fdd036923702b4e, 0x3fdca7c222fd86bc},
		weights:    []uint64{0x3fda6ce94fa81a10, 0x3fd431ceb9781672, 0x3fd16147f6dfcf7c},
	}.check(t, got)
	h := fnv.New64a()
	var b [8]byte
	for _, v := range got.XHat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if len(got.XHat) != 13 || h.Sum64() != 0xf669fe032345bfb6 {
		t.Fatalf("xhat (%d buckets, hash %#x) diverges from the recorded histogram", len(got.XHat), h.Sum64())
	}
}

// TestSpecRoundTripFrequency: same invariant for the k-RR variant through
// the histogram face.
func TestSpecRoundTripFrequency(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.FrequencyTask(6),
		core.WithBudget(2, 1), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80)))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	cats := make([]int, 2000)
	for i := range cats {
		cats[i] = r.IntN(3) // skewed to low categories
	}
	col, err := est.(*core.FreqDAP).CollectFreq(rng.New(9), cats, []int{5}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x3fd1f6bc79958cb3, 0x3fd428952fc1122e, 0x3fd5b78e681da218,
		0x3f63aea50661dec8, 0x3f74b764a77cd914, 0x3fad77288f083f30}
	if len(got.Freqs) != len(want) {
		t.Fatalf("%d frequencies, recorded %d", len(got.Freqs), len(want))
	}
	for j := range want {
		checkBits(t, "freq "+strconv.Itoa(j), got.Freqs[j], want[j])
	}
	checkBits(t, "gamma", got.Gamma, 0x3fc808e7dd6a3214)
	if !reflect.DeepEqual(got.PoisonCats, []int{3, 4, 5}) {
		t.Fatalf("poison cats %v, recorded [3 4 5]", got.PoisonCats)
	}
}

// TestSpecRoundTripVariance: the variance estimator consumes the rng in
// the order of the §V-D reference (split, collect the mean half, collect
// the moment half), so the recorded moments reproduce through the
// round-tripped spec.
func TestSpecRoundTripVariance(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.VarianceTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80)))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(11, 1600)
	got, err := est.(core.Runner).Run(rng.New(12), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "variance", got.Variance, 0x3f9d2887cc74cd3c)
	checkBits(t, "second moment", got.SecondMoment, 0x3fb9736a9b406ca4)
	recorded{
		mean: 0xbfd10be1cdbee0ea, gamma: 0x3fbcea302ca567bc, right: true,
		groupMeans: []uint64{0xbfd0271c3cdd3e30, 0xbfced7b596e306cc, 0xbfe31a74dd467e34,
			0xbfea5213b6d90133, 0xbfe85e79e836a12b, 0xbfe38a325bd2070a},
		weights: []uint64{0x3fe87f42b5cbabe5, 0x3fc80728c3438bc5, 0x3fa7ef31963712ad,
			0x3fe87f42b5cbabe4, 0x3fc80728c3438bc6, 0x3fa7ef31963712ae},
	}.check(t, got)
}

// TestSpecRoundTripBaseline: same invariant for the §IV protocol.
func TestSpecRoundTripBaseline(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.BaselineTask(0.125, 0.875),
		core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(80)))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(13, 1500)
	got, err := est.(core.Runner).Run(rng.New(14), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	recorded{
		mean: 0xbfd295374eda243d, gamma: 0x3fcbc58b9891deaa, right: true,
		groupMeans: []uint64{0xbfd295374eda243d},
		weights:    []uint64{0x3ff0000000000000},
	}.check(t, got)
}

// TestSpecDefense: a defense spec selects the comparator by name and
// matches the direct function call.
func TestSpecDefense(t *testing.T) {
	sp := roundTrip(t, core.NewSpec(core.MeanTask(),
		core.WithDefense(defense.Spec{Name: "trimming", Frac: 0.5, Side: "right"})))
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := core.CollectPM(rng.New(15), testValues(16, 4000), 1,
		attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), &core.Collection{Groups: [][]float64{reports}})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Clamp(defense.Trimming(reports, 0.5, true), -1, 1)
	if got.Mean != want {
		t.Fatalf("defense spec %v != direct %v", got.Mean, want)
	}
	// Defenses need raw reports; the histogram face is a typed rejection.
	if _, err := est.EstimateHist(context.Background(), nil); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("EstimateHist on defense spec: %v", err)
	}
}

// TestSpecValidation: the ErrBadSpec/ErrDomain taxonomy.
func TestSpecValidation(t *testing.T) {
	bad := []core.Spec{
		{Task: "nope", Eps: 1},
		{Task: core.TaskMean, Eps: -1},
		{Task: core.TaskMean, Eps: 1, Eps0: 2},
		{Task: core.TaskMean, Eps: 1, Scheme: "quantum"},
		{Task: core.TaskMean, Eps: 1, Weights: "vibes"},
		{Task: core.TaskMean, Eps: 1, Mechanism: "sw"},
		{Task: core.TaskFrequency, Eps: 1, K: 1},
		{Task: core.TaskBaseline, EpsAlpha: 0.9, EpsBeta: 0.1},
		{Task: core.TaskMean, Eps: 1, Defense: &defense.Spec{Name: "magic"}},
		{Task: core.TaskMean, Eps: 1, Defense: &defense.Spec{Name: "trimming", Side: "up"}},
		{Task: core.TaskDistribution, Eps: 1, TrimFrac: 1.5},
		{Task: core.TaskMean, Eps: 1, GammaSup: 1},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Window: "spiral"}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Shards: -1}},
	}
	for _, sp := range bad {
		if _, err := core.Build(sp); !errors.Is(err, core.ErrBadSpec) {
			t.Fatalf("spec %+v: err = %v, want ErrBadSpec", sp, err)
		}
	}
	// Domain problems wrap both sentinels.
	_, err := core.Build(core.Spec{Task: core.TaskMean, Eps: 1,
		Domain: &core.DomainSpec{Lo: 2, Hi: 1}})
	if !errors.Is(err, core.ErrBadSpec) || !errors.Is(err, core.ErrDomain) {
		t.Fatalf("inverted domain: %v", err)
	}
	// ParseSpec rejects unknown fields loudly.
	if _, err := core.ParseSpec([]byte(`{"task":"mean","eps":1,"epz":2}`)); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("unknown field: %v", err)
	}
}

// TestSpecFiles: every example spec in specs/ parses, validates and
// builds.
func TestSpecFiles(t *testing.T) {
	for _, f := range []string{
		"specs/mean.json", "specs/distribution.json", "specs/frequency.json",
		"specs/variance.json", "specs/baseline.json", "specs/defense-trimming.json",
		"specs/serve.json", "specs/telemetry.json", "specs/attack-bba.json",
		"specs/attack-adaptive-stream.json", "specs/attack-freq-maxgain.json",
	} {
		sp, err := core.LoadSpec(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := core.Build(sp); err != nil {
			t.Fatalf("%s: Build: %v", f, err)
		}
	}
}

// TestSpecEndToEnd is the acceptance invariant of the task-spec redesign:
// one JSON spec, parsed once, powers (1) batch estimation through
// dap.Build, (2) a stream tenant fed the identical reports, and (3) the
// wire API hosting the same spec as a tenant — and all three return the
// same estimate to 1e-12.
func TestSpecEndToEnd(t *testing.T) {
	const n = 1404
	specJSON := []byte(`{
		"task": "mean",
		"scheme": "emfstar",
		"eps": 1,
		"eps0": 0.25,
		"serve": {"expected_users": 1404, "shards": 1}
	}`)
	sp, err := core.ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}

	// (1) Batch: simulate a collection and estimate through Build.
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	col, err := est.(core.Collector).Collect(rng.New(20), testValues(21, n),
		attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}

	// (2) Stream tenant from the same spec, fed the same reports at
	// protocol granularity.
	tn, err := stream.NewTenantSpec("e2e", sp)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(send func(user string, group int, vals []float64) error) {
		t.Helper()
		for g, reports := range col.Groups {
			slots := est.Groups()[g].Reports
			u := 0
			for lo := 0; lo < len(reports); lo += slots {
				hi := min(lo+slots, len(reports))
				user := "g" + strconv.Itoa(g) + "u" + strconv.Itoa(u)
				if err := send(user, g, reports[lo:hi]); err != nil {
					t.Fatal(err)
				}
				u++
			}
		}
	}
	ingest(tn.Ingest)
	snap, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(snap.Result.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("stream mean differs from batch by %g", diff)
	}
	if snap.Result.Gamma != batch.Gamma || snap.Result.PoisonedRight != batch.PoisonedRight {
		t.Fatalf("stream probe (%v,%v) != batch (%v,%v)",
			snap.Result.Gamma, snap.Result.PoisonedRight, batch.Gamma, batch.PoisonedRight)
	}

	// (3) Wire: the same spec becomes a tenant over HTTP; the identical
	// reports flow through batched ingest.
	srv, err := transport.NewServerSpec(core.NewSpec(core.MeanTask()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := transport.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	created, err := client.CreateTenantSpec(ctx, "e2e", sp)
	if err != nil {
		t.Fatal(err)
	}
	if created.Spec.Task != core.TaskMean || created.Spec.Eps != 1 {
		t.Fatalf("wire spec round-trip: %+v", created.Spec)
	}
	tc := client.Tenant("e2e")
	var reqs []transport.ReportRequest
	ingest(func(user string, group int, vals []float64) error {
		reqs = append(reqs, transport.ReportRequest{User: user, Group: group, Values: vals})
		return nil
	})
	res, err := tc.Ingest(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("wire ingest rejected %d: %v", res.Rejected, res.Errors)
	}
	wireEst, err := tc.Estimate(ctx, "1")
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(wireEst.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("wire mean differs from batch by %g", diff)
	}
	if wireEst.Gamma != batch.Gamma {
		t.Fatalf("wire gamma %v != batch %v", wireEst.Gamma, batch.Gamma)
	}
}
