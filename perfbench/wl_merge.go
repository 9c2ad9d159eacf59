package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wirebin"
	"repro/perfbench/stats"
)

// epoch-merge parameters: two node tenants at d′ = 1024 with CEMF* and
// warm starts, fresh users every epoch under a ramping colluder attack.
const (
	mergeNodes         = 2
	mergeBuckets       = 1024
	mergeEps0          = 1.0 / 8
	mergeUsersPerEpoch = 20_000
	mergeEpochsPerSec  = 2
	mergeColluders     = 0.2
	mergeReadEvery     = 20 // node batches between live reads
	mergeTenant        = "default"
	valueSeedMerge     = 0x4d52
	mergeSetupSubprocs = 9 // cold set-ups per repetition; the median is its setup_s
)

// mergeSpec is the epoch-merge task spec; warm selects solver warm starts.
func mergeSpec(warm bool) core.Spec {
	return core.NewSpec(core.MeanTask(), core.WithBudget(1, mergeEps0),
		core.WithScheme(core.SchemeCEMFStar),
		core.WithServe(core.ServeSpec{Buckets: mergeBuckets, Warm: warm}))
}

// mergeCluster is the in-process merge plane: node tenants whose seal
// hooks encode their epoch deltas, and the coordinator.
type mergeCluster struct {
	nodes  []*stream.Tenant
	ids    []string
	co     *stream.Coordinator
	frames [][]byte // per node: the last sealed epoch's delta frame
}

// epochIn is one epoch's input: per node, its batches.
type epochIn struct{ parts [][][]store.IngestEntry }

// newMergeCluster builds the nodes and the coordinator and warms their
// estimators' matrix caches with one estimate over a tiny histogram.
func newMergeCluster() (*mergeCluster, error) {
	sp := mergeSpec(true)
	mc := &mergeCluster{frames: make([][]byte, mergeNodes)}
	for i := 0; i < mergeNodes; i++ {
		id := "node-" + strconv.Itoa(i)
		t, err := stream.NewTenantSpec(mergeTenant, sp)
		if err != nil {
			return nil, err
		}
		t.SetSealHook(func(d *stream.EpochDelta) {
			d.Node = id
			frame, err := wirebin.EncodeDelta(d)
			if err != nil {
				frame = nil // reported as a failed merge below
			}
			mc.frames[i] = frame
		})
		mc.nodes = append(mc.nodes, t)
		mc.ids = append(mc.ids, id)
	}
	co, err := stream.NewCoordinator(stream.CoordinatorConfig{Nodes: mc.ids, Straggler: time.Hour})
	if err != nil {
		return nil, err
	}
	// The coordinator estimates warm-free, like the reference it is
	// checked against; warm starts are a node-local optimization.
	if err := co.AddTenantSpec(mergeTenant, mergeSpec(false)); err != nil {
		return nil, err
	}
	mc.co = co
	return mc, warmEstimator(mc.nodes[0].Estimator())
}

// warmEstimator runs one estimate over a small synthetic histogram so the
// transform matrices are built before timing starts.
func warmEstimator(est core.Estimator) error {
	hc := &core.HistCollection{}
	for range est.Groups() {
		c := make([]float64, mergeBuckets)
		for i := range c {
			c[i] = float64(1 + i%3)
		}
		hc.Counts = append(hc.Counts, c)
		hc.Sums = append(hc.Sums, 0)
	}
	_, err := est.EstimateHist(context.Background(), hc)
	return err
}

// epochMergeSetupOnce measures one cold set-up: empty matrix cache, new
// nodes and coordinator, warm caches at the end.
func epochMergeSetupOnce() (float64, error) {
	emf.ResetMatrixCache()
	t0 := time.Now()
	if _, err := newMergeCluster(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// mergeSetup runs cold set-ups in fresh processes and returns their
// median seconds.
func mergeSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < mergeSetupSubprocs; i++ {
		cmd := exec.Command(self, "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up subprocess: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, err
		}
		xs = append(xs, s)
	}
	return stats.Median(xs), nil
}

// mergePopulation is the epoch-merge input: fresh users every epoch.
func mergePopulation(r *run) (*population, error) {
	epochs := int(mergeEpochsPerSec * r.repSeconds())
	adv, err := attack.New(attack.Spec{Name: "ramp", Epochs: epochs})
	if err != nil {
		return nil, err
	}
	return generate(popConfig{
		spec: mergeSpec(true), users: mergeUsersPerEpoch * epochs, epochs: epochs,
		colluders: mergeColluders, adv: adv,
		valueSeed: valueSeedMerge, seed: r.seed,
	})
}

// partition splits one epoch's entries over the nodes by stripe.
func partition(entries []store.IngestEntry, shards int) [][]store.IngestEntry {
	parts := make([][]store.IngestEntry, mergeNodes)
	for _, e := range entries {
		n := stream.StripeOf(e.User, shards) % mergeNodes
		parts[n] = append(parts[n], e)
	}
	return parts
}

// mergeEpochResult is what one published epoch observed.
type mergeEpochResult struct {
	publish time.Duration
	snap    *stream.Snapshot
}

func runEpochMerge(r *run) (map[string]float64, error) {
	pop, err := mergePopulation(r)
	if err != nil {
		return nil, err
	}
	r.replay = &replayInput{spec: mergeSpec(true), coSpec: mergeSpec(false), pop: pop, wire: "bin",
		batch: ingestBatch, frame: ingestBatch, readEvery: mergeReadEvery, nodes: mergeNodes}
	// Partition and batch before timing starts.
	in := make([]epochIn, len(pop.epochEnd))
	shards := stripesOf(mergeSpec(true))
	lo := 0
	for e, end := range pop.epochEnd {
		for _, part := range partition(pop.entries[lo:end], shards) {
			in[e].parts = append(in[e].parts, batches(part, ingestBatch))
		}
		lo = end
	}
	r.notef("in-process: %d nodes, %d epochs of ~%d fresh users, d′=%d, %d users, %d reports, ramp colluders %.2f",
		mergeNodes, len(pop.epochEnd), mergeUsersPerEpoch, mergeBuckets, pop.users, pop.reports, mergeColluders)
	var reps []repResult
	for rep := 0; rep < repetitions; rep++ {
		// The set-ups run before each repetition, so like the other
		// metrics they sample the whole run.
		setup, err := mergeSetup()
		if err != nil {
			return nil, err
		}
		rr, err := runEpochMergeOnce(r, pop, in, rep)
		if err != nil {
			return nil, err
		}
		rr.m["setup_s"] = setup
		reps = append(reps, rr)
	}
	return combine(r, reps), nil
}

// runEpochMergeOnce runs every epoch on a fresh cluster: each node
// ingests its share (with a live read every mergeReadEvery batches) and
// rotates, the coordinator applies both deltas and publishes. Nodes run
// one after the other, so the figures carry no scheduling noise between
// them. Then the untimed checks: the single-node reference and the
// coordinator's recovery.
func runEpochMergeOnce(r *run, pop *population, in []epochIn, rep int) (repResult, error) {
	var none repResult
	mc, err := newMergeCluster()
	if err != nil {
		return none, err
	}
	// The applied deltas go to a merge WAL between epochs, outside the
	// timed intervals, so the recovery step below can replay them.
	walDir := r.path(fmt.Sprintf("merge-wal-%d", rep))
	wal, err := openMergeWAL(walDir)
	if err != nil {
		return none, err
	}
	defer wal.Close()
	debug.FreeOSMemory()
	rss0, err := procStatusKB(os.Getpid(), "VmRSS")
	if err != nil {
		return none, err
	}
	var (
		ingestMs, readMs []float64
		ops, failed      int
		firstErr         error
		wall, cpu        time.Duration
	)
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	published := make([]mergeEpochResult, len(in))
	for e := range in {
		cpu0 := processCPU()
		start := time.Now()
		for n, t := range mc.nodes {
			for b, batch := range in[e].parts[n] {
				t0 := time.Now()
				errs := t.IngestBatch(batch)
				ingestMs = append(ingestMs, float64(time.Since(t0).Nanoseconds())/1e6)
				ops++
				for _, err := range errs {
					if err != nil {
						fail(err)
						break
					}
				}
				if (b+1)%mergeReadEvery == 0 {
					t0 := time.Now()
					if _, err := t.Estimate(true); err != nil {
						fail(err)
					}
					readMs = append(readMs, float64(time.Since(t0).Nanoseconds())/1e6)
					ops++
				}
			}
		}
		first := time.Now()
		for n, t := range mc.nodes {
			ops++
			if _, err := t.Rotate(); err != nil {
				fail(fmt.Errorf("node %d rotate: %w", n, err))
			}
		}
		for n, f := range mc.frames {
			ops++
			if f == nil {
				fail(fmt.Errorf("node %d: no delta frame", n))
				continue
			}
			if _, err := mc.co.Apply(f); err != nil {
				fail(err)
			}
		}
		ops++
		snap, err := mc.co.Estimate(mergeTenant)
		end := time.Now()
		wall += end.Sub(start)
		cpu += processCPU() - cpu0
		if err != nil || snap.Epoch != uint64(e+1) {
			fail(fmt.Errorf("epoch %d not published: %v", e+1, err))
		} else {
			published[e] = mergeEpochResult{publish: end.Sub(first), snap: snap}
		}
		for n, f := range mc.frames {
			if f == nil {
				continue
			}
			if _, err := wal.AppendMergeDelta(mergeTenant, mc.ids[n], uint64(e+1), f); err != nil {
				return none, err
			}
			mc.frames[n] = nil
		}
	}
	debug.FreeOSMemory()
	rss1, err := procStatusKB(os.Getpid(), "VmRSS")
	if err != nil {
		return none, err
	}
	r.ops(ops, failed, firstErr)

	m := map[string]float64{}
	m["reports_per_s"] = float64(pop.reports) / wall.Seconds()
	m["server_cpu_ns_per_report"] = float64(cpu.Nanoseconds()) / float64(pop.reports)
	m["rss_bytes_per_user"] = (rss1 - rss0) * 1024 / float64(pop.users)
	var pubMs []float64
	var muErr, gErr float64
	for e, p := range published {
		if p.snap == nil {
			continue
		}
		pubMs = append(pubMs, float64(p.publish.Nanoseconds())/1e6)
		muErr += math.Abs(p.snap.Result.Mean - pop.honest[e])
		gErr += math.Abs(p.snap.Result.Gamma - pop.gamma[e])
	}
	r.check(len(pubMs) == len(published), "%d of %d epochs published", len(pubMs), len(published))
	m["mean_abs_err"] = muErr / float64(len(pubMs))
	m["gamma_abs_err"] = gErr / float64(len(pubMs))
	r.notef("rep %d: %d ingest batches, %d live reads, %d epochs published, %.2f s timed",
		rep, len(ingestMs), len(readMs), len(pubMs), wall.Seconds())

	// Untimed: the single-node reference must match every merged epoch.
	if err := checkMergeReference(r, pop, published); err != nil {
		return none, err
	}
	if err := wal.Close(); err != nil {
		return none, err
	}
	rec, err := mergeRecovery(r, mc.ids, walDir, published[len(published)-1].snap)
	if err != nil {
		return none, err
	}
	m["recovery_s"] = rec
	return repResult{m: m, ingest: ingestMs, reads: readMs, publish: pubMs}, nil
}

// checkMergeReference feeds the whole stream, epoch by epoch and in order,
// to one warm-free tenant and compares each of its epoch estimates with
// the coordinator's, bit for bit (as JSON, whose float encoding round-
// trips exactly).
func checkMergeReference(r *run, pop *population, published []mergeEpochResult) error {
	ref, err := stream.NewTenantSpec(mergeTenant, mergeSpec(false))
	if err != nil {
		return err
	}
	lo := 0
	for e, end := range pop.epochEnd {
		for _, b := range batches(pop.entries[lo:end], ingestBatch) {
			for _, err := range ref.IngestBatch(b) {
				if err != nil {
					return fmt.Errorf("reference ingest: %w", err)
				}
			}
		}
		lo = end
		snap, err := ref.Rotate()
		if err != nil {
			return fmt.Errorf("reference rotate: %w", err)
		}
		if published[e].snap == nil {
			continue
		}
		want, err1 := json.Marshal(snap.Result)
		got, err2 := json.Marshal(published[e].snap.Result)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("encode estimates: %v %v", err1, err2)
		}
		r.check(bytes.Equal(got, want), "epoch %d merged estimate differs from the single-node reference:\n got %s\nwant %s", e+1, got, want)
	}
	return nil
}

// processCPU returns this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openMergeWAL creates the merge WAL a durable coordinator would have
// written, holding the tenant registration; deltas are appended per
// epoch.
func openMergeWAL(dir string) (*store.Store, error) {
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return nil, err
	}
	if _, err := st.Load(); err != nil {
		st.Close()
		return nil, err
	}
	spec, err := json.Marshal(mergeSpec(false).Normalize())
	if err == nil {
		_, err = st.AppendTenantCreate(mergeTenant, spec)
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// mergeRecovery times RecoverCoordinator over the run's merge WAL until
// it serves the last epoch again; the recovered estimate must equal the
// one served live.
func mergeRecovery(r *run, ids []string, dir string, last *stream.Snapshot) (float64, error) {
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	co, _, err := stream.RecoverCoordinator(stream.CoordinatorConfig{Nodes: ids, Straggler: time.Hour, Store: st})
	if err != nil {
		return 0, err
	}
	snap, err := co.Estimate(mergeTenant)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if last == nil {
		r.check(false, "no last epoch to compare the recovered coordinator with")
		return took.Seconds(), nil
	}
	want, err1 := json.Marshal(last.Result)
	got, err2 := json.Marshal(snap.Result)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("encode estimates: %v %v", err1, err2)
	}
	r.check(snap.Epoch == last.Epoch && bytes.Equal(got, want),
		"recovered coordinator serves epoch %d %s, want epoch %d %s", snap.Epoch, got, last.Epoch, want)
	return took.Seconds(), nil
}
