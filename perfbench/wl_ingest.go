package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/perfbench/stats"
)

// Workload parameters. A run makes `repetitions` timed phases; work is
// sized from --seconds so that together they last about that long on a
// 2-vCPU box. Rotations and reads fire by report and request count,
// never by the clock.
const (
	// ingest-json: open loop at a fixed offered rate, ε0 = ε/128 (eight
	// groups, 1–128 values per user) sent in chunks of up to 8 values.
	// The closed-loop capacity of the same requests on a 2-vCPU box is
	// about 1.1M reports/s. Each epoch's ingest is an open-loop burst;
	// between bursts, jsonTailReads live reads and the epoch's rotation
	// run on the idle collector.
	jsonOfferedRate = 400_000 // reports/s
	jsonEps0        = 1.0 / 128
	jsonChunk       = 8
	jsonEpochs      = 8
	jsonTailReads   = 10
	// ingest-bin-wal: closed loop, ε0 = ε/4 (1–4 values per user),
	// 1.25·10⁵ distinct users per nominal second (10⁶ per repetition at
	// the benchmark's 24 s), frames of 200 users coalesced 4 to a request.
	binUsersPerSecond = 125_000
	binEps0           = 0.25
	binFrames         = 4
	binReadEvery      = 25
	binEpochs         = 8
	// Both: BBA colluders, 200 users per batch.
	ingestColluders = 0.1
	ingestBatch     = 200
	repetitions     = 3 // timed phases per run, each on fresh collectors; metrics are medians over them
	setupRepeats    = 9 // collector starts per repetition; the median is its setup_s
	restartRepeats  = 9 // in-memory kill -9 and restart cycles per repetition; the median is its recovery_s
	valueSeedJSON   = 0x4a53
	valueSeedBin    = 0x42494e
)

// ingestSpec is the collector's task spec for an ingest workload.
func ingestSpec(eps0 float64, users int) core.Spec {
	return core.NewSpec(core.MeanTask(), core.WithBudget(1, eps0),
		core.WithScheme(core.SchemeCEMFStar),
		core.WithServe(core.ServeSpec{ExpectedUsers: users}))
}

// collectorArgs renders an ingest spec as dapcollect flags.
func collectorArgs(sp core.Spec, extra ...string) []string {
	args := []string{
		"-eps", strconv.FormatFloat(sp.Eps, 'g', -1, 64),
		"-eps0", strconv.FormatFloat(sp.Eps0, 'g', -1, 64),
		"-scheme", "cemfstar",
		"-expected-users", strconv.Itoa(sp.Serve.ExpectedUsers),
		"-log-level", "warn",
	}
	return append(args, extra...)
}

// ingestPlan is an HTTP ingest workload.
type ingestPlan struct {
	spec core.Spec
	pop  *population
	// segments are the timed phases, driven one after the other.
	segments [][]job
	open     bool
	conns    int
	durable  bool
	// tailReads > 0: after each segment, that many live reads and then a
	// rotation run on the idle collector, outside the timed phase.
	tailReads int
}

func runIngestJSON(r *run) (map[string]float64, error) {
	users := int(jsonOfferedRate * r.repSeconds() / (255.0 / 8))
	sp := ingestSpec(jsonEps0, users)
	pop, err := generate(popConfig{
		spec: sp, users: users, epochs: jsonEpochs, chunk: jsonChunk,
		colluders: ingestColluders, adv: attack.NewBBA(attack.RangeHighHalf, attack.DistUniform),
		valueSeed: valueSeedJSON, seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	jobs, err := schedule(pop, "json", ingestBatch, 1, 0, true)
	if err != nil {
		return nil, err
	}
	// One open-loop segment per epoch (the rotations move to the idle
	// tails), ingests spread evenly over the nominal run.
	n := len(jobs) - jsonEpochs
	interval := time.Duration(r.repSeconds()*float64(time.Second)) / time.Duration(n)
	var segments [][]job
	lo := 0
	for i, j := range jobs {
		if j.kind == jobRotate {
			segments = append(segments, jobs[lo:i])
			lo = i + 1
		}
	}
	for _, seg := range segments {
		for i := range seg {
			seg[i].due = time.Duration(i) * interval
		}
	}
	r.notef("open loop: %d reports/s offered as %d JSON requests of ≤%d entries over %d connections, in %d bursts; %d users, %d reports",
		jsonOfferedRate, n, ingestBatch, maxConns(2), len(segments), pop.users, pop.reports)
	r.replay = &replayInput{spec: sp, coSpec: sp, pop: pop, wire: "json", batch: ingestBatch, frame: ingestBatch, nodes: 1}
	return runIngest(r, &ingestPlan{spec: sp, pop: pop, segments: segments, open: true, conns: maxConns(2), tailReads: jsonTailReads})
}

func runIngestBinWAL(r *run) (map[string]float64, error) {
	users := int(binUsersPerSecond * r.repSeconds())
	sp := ingestSpec(binEps0, users)
	pop, err := generate(popConfig{
		spec: sp, users: users, epochs: binEpochs,
		colluders: ingestColluders, adv: attack.NewBBA(attack.RangeHighHalf, attack.DistUniform),
		valueSeed: valueSeedBin, seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	jobs, err := schedule(pop, "bin", ingestBatch, binFrames, binReadEvery, true)
	if err != nil {
		return nil, err
	}
	r.notef("closed loop: %d connections, coalesced frame streams of %d×%d users; %d users, %d reports, %d requests",
		maxConns(2), binFrames, ingestBatch, pop.users, pop.reports, len(jobs))
	r.replay = &replayInput{spec: sp, coSpec: sp, pop: pop, wire: "bin", batch: binFrames * ingestBatch, frame: ingestBatch, readEvery: binReadEvery, nodes: 1}
	return runIngest(r, &ingestPlan{spec: sp, pop: pop, segments: [][]job{jobs}, conns: maxConns(2), durable: true})
}

// runIngest runs the plan reps times, each against fresh collectors.
func runIngest(r *run, pl *ingestPlan) (map[string]float64, error) {
	var reps []repResult
	for i := 0; i < repetitions; i++ {
		rr, err := runIngestOnce(r, pl, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rr)
	}
	return combine(r, reps), nil
}

// repResult is one repetition's metrics and its latency samples (ms).
type repResult struct {
	m                      map[string]float64
	ingest, reads, publish []float64
}

// combine reports every metric's median over the repetitions, except
// the latency percentiles, which come from the repetitions' pooled
// samples: the tail of one repetition holds too few of them.
func combine(r *run, reps []repResult) map[string]float64 {
	out := map[string]float64{}
	for k := range reps[0].m {
		xs := make([]float64, len(reps))
		for i, rr := range reps {
			xs[i] = rr.m[k]
		}
		out[k] = stats.Median(xs)
	}
	var ingest, reads, publish []float64
	for _, rr := range reps {
		ingest = append(ingest, rr.ingest...)
		reads = append(reads, rr.reads...)
		publish = append(publish, rr.publish...)
	}
	out["ingest_p50_ms"], _ = stats.Percentile(ingest, 50)
	p99, beyond := stats.Percentile(ingest, 99)
	out["ingest_p99_ms"] = p99
	r.check(beyond >= stats.MinBeyond, "only %d ingest samples beyond p99 (need %d)", beyond, stats.MinBeyond)
	q1, q2, q3 := stats.Quartiles(ingest)
	tp, tv, tb, _ := stats.TailPercentile(ingest)
	r.notef("ingest latency: %d samples, quartiles %.3f / %.3f / %.3f ms, p99 %.3f ms (%d beyond); highest percentile with ≥%d beyond: p%g = %.3f ms (%d beyond)",
		len(ingest), q1, q2, q3, p99, beyond, stats.MinBeyond, tp, tv, tb)
	out["estimate_read_p50_ms"] = stats.Median(reads)
	out["publish_p50_ms"] = stats.Median(publish)
	return out
}

// runIngestOnce sets the collector up (several times; the median
// counts), drives the plan, checks the collector's counters, then kills
// it with SIGKILL and restarts it on the same state.
func runIngestOnce(r *run, pl *ingestPlan, rep int) (repResult, error) {
	var none repResult
	ctx := context.Background()
	hc := newHTTPClient(pl.conns)
	defer hc.CloseIdleConnections()
	storeDir := ""
	args := func() []string {
		if !pl.durable {
			return collectorArgs(pl.spec)
		}
		return collectorArgs(pl.spec, "-store-dir", storeDir, "-fsync", "os", "-snapshot-interval", "0")
	}
	// The generator must not collect garbage while collectors start or
	// while it drives the load: the two processes share the CPUs.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var setups []float64
	var c *collector
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.kill9()
		}
		storeDir = r.path(fmt.Sprintf("store-%d-%d", rep, i))
		var err error
		if c, err = startCollector(r.collector, r.path("collector.log"), args()...); err != nil {
			return none, err
		}
		d, err := c.waitReady(hc, 60*time.Second)
		if err != nil {
			return none, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { c.stop() }()
	pid := c.cmd.Process.Pid
	before, err := scrape(ctx, hc, c.base, "dap_stream_reports_ingested_total")
	if err != nil {
		return none, err
	}
	res := &loadResult{}
	var cpu time.Duration
	for _, seg := range pl.segments {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return none, err
		}
		res.add(drive(ctx, hc, c.base, seg, pl.conns, pl.open), true)
		cpu1, err := cpuTime(pid)
		if err != nil {
			return none, err
		}
		cpu += cpu1 - cpu0
		if pl.tailReads > 0 {
			tail := make([]job, pl.tailReads, pl.tailReads+1)
			for i := range tail {
				tail[i].kind = jobRead
			}
			tail = append(tail, job{kind: jobRotate})
			res.add(drive(ctx, hc, c.base, tail, 1, false), false)
		}
	}
	r.ops(res.attempted, res.failed, res.firstErr)
	after, err := scrape(ctx, hc, c.base, "dap_stream_reports_ingested_total")
	if err != nil {
		return none, err
	}
	r.check(after-before == float64(res.acked),
		"dap_stream_reports_ingested_total moved by %.0f, client saw %d acked", after-before, res.acked)
	r.check(res.acked == pl.pop.reports, "acked %d of %d reports", res.acked, pl.pop.reports)
	hwm, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return none, err
	}

	m := map[string]float64{}
	m["setup_s"] = stats.Median(setups)
	m["reports_per_s"] = float64(res.acked) / res.wall.Seconds()
	p50, _ := stats.Percentile(res.ingestMs, 50)
	p99, _ := stats.Percentile(res.ingestMs, 99)
	r.notef("rep %d: %d ingest requests (p50 %.2f ms, p99 %.2f ms), %d reads, %d rotations, %.2f s timed, collector CPU %.2f s",
		rep, len(res.ingestMs), p50, p99, len(res.readMs), len(res.rotateMs), res.wall.Seconds(), cpu.Seconds())
	if pl.open {
		late, _ := stats.Percentile(res.lateMs, 99)
		r.lateP99 = max(r.lateP99, late)
		r.notef("rep %d: open-loop generator p99 lateness %.3f ms", rep, late)
	}
	m["server_cpu_ns_per_report"] = float64(cpu.Nanoseconds()) / float64(res.acked)
	m["rss_bytes_per_user"] = hwm * 1024 / float64(pl.pop.users)
	var muErr, gErr float64
	for _, e := range res.published {
		muErr += math.Abs(e.Mean - pl.pop.allHonest)
		gErr += math.Abs(e.Gamma - pl.pop.allGamma)
	}
	r.check(len(res.published) == len(pl.pop.epochEnd), "%d of %d epochs published", len(res.published), len(pl.pop.epochEnd))
	m["mean_abs_err"] = muErr / float64(len(res.published))
	m["gamma_abs_err"] = gErr / float64(len(res.published))

	// Crash and restart on the same state.
	var estBefore []byte
	var reportersBefore float64
	if pl.durable {
		st, body, err := httpDo(ctx, hc, http.MethodGet, c.base+"/v1/estimate?live=0", "", nil)
		if err != nil {
			return none, err
		}
		r.check(st == http.StatusOK, "cached estimate before the kill: status %d", st)
		estBefore = body
		if reportersBefore, err = scrape(ctx, hc, c.base, "dap_privacy_reporters"); err != nil {
			return none, err
		}
	}
	// A durable restart replays the whole store once; an in-memory
	// restart is cheap and noisy, so it is repeated.
	cycles := restartRepeats
	if pl.durable {
		cycles = 1
	}
	var recs []float64
	for i := 0; i < cycles; i++ {
		c.kill9()
		hc.CloseIdleConnections()
		if c, err = startCollector(r.collector, r.path("collector.log"), args()...); err != nil {
			return none, err
		}
		rec, err := c.waitReady(hc, 120*time.Second)
		if err != nil {
			return none, err
		}
		recs = append(recs, rec.Seconds())
	}
	m["recovery_s"] = stats.Median(recs)
	if pl.durable {
		st, body, err := httpDo(ctx, hc, http.MethodGet, c.base+"/v1/estimate?live=0", "", nil)
		if err != nil {
			return none, err
		}
		r.check(st == http.StatusOK && bytes.Equal(body, estBefore),
			"estimate after kill -9 and restart differs:\n before %s\n after  %s", estBefore, body)
		// The ledger check recovers a million users in-process; once per
		// run is enough.
		if rep == repetitions-1 {
			c.stop()
			debug.SetGCPercent(gc)
			if err := checkLedger(r, storeDir, pl.pop, reportersBefore); err != nil {
				return none, err
			}
		}
	}
	c.kill9()
	return repResult{m: m, ingest: res.ingestMs, reads: res.readMs, publish: res.rotateMs}, nil
}

// checkLedger recovers the restarted collector's store in-process and
// compares its budget ledger byte for byte with the ledger the acked
// entries must have produced, and its size with the reporter count the
// collector exported before the kill.
func checkLedger(r *run, dir string, p *population, reportersBefore float64) error {
	want, err := expectedLedger(p)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return err
	}
	defer st.Close()
	reg, _, err := stream.Recover(st)
	if err != nil {
		return err
	}
	defer reg.Close()
	t, ok := reg.Get(transport.DefaultTenant)
	if !ok {
		r.check(false, "recovered store has no default tenant")
		return nil
	}
	got := t.Accountant().Export()
	r.check(bytes.Equal(ledgerBytes(got), ledgerBytes(want)),
		"budget ledger after kill -9 and restart differs (%d users recovered, %d expected)", len(got), len(want))
	r.check(reportersBefore == float64(len(want)),
		"collector reported %.0f budget holders before the kill, %d expected", reportersBefore, len(want))
	return nil
}

// expectedLedger replays every entry through a fresh accountant: the
// ledger a collector that acked them all must hold.
func expectedLedger(p *population) (map[string]float64, error) {
	a, err := privacy.NewAccountant(1)
	if err != nil {
		return nil, err
	}
	for _, e := range p.entries {
		if err := a.SpendN(e.User, p.groups[e.Group].Eps, len(e.Values)); err != nil {
			return nil, err
		}
	}
	return a.Export(), nil
}

// ledgerBytes is a canonical encoding of a ledger: users in order, each
// with its spend's float64 bits.
func ledgerBytes(m map[string]float64) []byte {
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Strings(users)
	var b []byte
	for _, u := range users {
		b = append(b, u...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m[u]))
	}
	return b
}
