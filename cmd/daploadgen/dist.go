package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

// distRun parameterizes the -nodes distributed mode: N in-process node
// collectors, one coordinator, and a single-collector reference that
// ingests the identical stream — the merged estimate must match the
// reference bit for bit.
type distRun struct {
	sp        core.Spec
	adv       attack.Adversary
	atkEpochs int
	nodes     int
	users     int
	reports   int
	batch     int
	gamma     float64
	lo, hi    float64
	seed      uint64
	minRate   float64
	jsonOut   string
}

// serveSpec boots one in-process collector over a loopback listener.
func serveSpec(sp core.Spec, opts transport.ServerOptions) (string, *transport.Server, func(), error) {
	srv, err := transport.NewServerSpecOpts(sp, opts)
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	closeFn := func() {
		_ = hs.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), srv, closeFn, nil
}

// runDistributed drives the scale-out plane end to end and returns the
// process exit code. The workload is partitioned across the nodes
// stripe-disjointly (owner = stripe(user) mod N) and each node ingests
// its share on one ordered connection — per-stripe arrival order then
// matches the reference, which is what makes the merged stripe sums,
// and so the merged estimate, bit-identical.
func runDistributed(c distRun) int {
	sp := c.sp
	if sp.Serve == nil {
		sp.Serve = &core.ServeSpec{}
	}
	// Bit-identity needs estimates that are pure functions of the window
	// histograms: warm starts seed the solver from the previous fit,
	// which the coordinator does not replicate.
	sp.Serve.Warm = false
	if sp.Serve.ExpectedUsers == 0 {
		expected := c.users
		if expected == 0 {
			h := int(math.Ceil(math.Log2(sp.Eps/sp.Eps0)-1e-12)) + 1
			expected = c.reports * h / (1<<h - 1)
		}
		sp.Serve.ExpectedUsers = expected
	}

	ids := make([]string, c.nodes)
	for i := range ids {
		ids[i] = "node-" + strconv.Itoa(i)
	}
	co, err := stream.NewCoordinator(stream.CoordinatorConfig{Nodes: ids, Straggler: time.Minute})
	if err != nil {
		log.Print("daploadgen: ", err)
		return 1
	}
	if err := co.AddTenantSpec(transport.DefaultTenant, sp); err != nil {
		log.Print("daploadgen: ", err)
		return 1
	}
	coordBase, _, closeCoord, err := serveSpec(sp, transport.ServerOptions{Coordinator: co})
	if err != nil {
		log.Print("daploadgen: ", err)
		return 1
	}
	defer closeCoord()
	coordClient := transport.NewClient(coordBase, nil)
	coordClient.SetRetry(3, time.Second)

	refBase, refSrv, closeRef, err := serveSpec(sp, transport.ServerOptions{})
	if err != nil {
		log.Print("daploadgen: ", err)
		return 1
	}
	defer closeRef()
	refClient := transport.NewClient(refBase, nil)

	type nodeSrv struct {
		srv    *transport.Server
		client *transport.Client
	}
	cluster := make([]nodeSrv, c.nodes)
	for i := range cluster {
		base, srv, closeFn, err := serveSpec(sp, transport.ServerOptions{})
		if err != nil {
			log.Print("daploadgen: ", err)
			return 1
		}
		defer closeFn()
		id := ids[i]
		reg := srv.Registry()
		reg.SetSealHook(func(d *stream.EpochDelta) {
			d.Node = id
			// A delta that does not merge takes its users' spends with it;
			// the tenant then re-ships its whole ledger from the next seal.
			resend := func() {
				if t, ok := reg.Get(d.Tenant); ok {
					t.ResendLedger()
				}
			}
			frame, err := wirebin.EncodeDelta(d)
			if err != nil {
				log.Print("daploadgen: encode delta: ", err)
				resend()
				return
			}
			res, err := coordClient.PushDelta(context.Background(), frame)
			if err != nil {
				log.Print("daploadgen: push delta: ", err)
				resend()
				return
			}
			if res.Status != "merged" {
				resend()
			}
		})
		cluster[i] = nodeSrv{srv: srv, client: transport.NewClient(base, nil)}
	}

	ctx := context.Background()
	cfg, err := refClient.Config(ctx)
	if err != nil {
		log.Print("daploadgen: ", err)
		return 1
	}
	entries, _ := workload(cfg, c.adv, c.atkEpochs, c.users, c.reports, c.gamma, c.lo, c.hi, c.seed)
	var total int
	for _, e := range entries {
		total += len(e.Values)
	}
	parts := make([][]entry, c.nodes)
	for _, e := range entries {
		owner := stream.StripeOf(e.User, cfg.Shards) % c.nodes
		parts[owner] = append(parts[owner], e)
	}
	fmt.Printf("daploadgen: distributed: %d nodes, %d users, %d reports, γ=%g, batch %d (one ordered conn per node)\n",
		c.nodes, len(entries), total, c.gamma, c.batch)

	// The reference ingests the whole stream in order, straight into the
	// engine — identical values, identical per-stripe arrival order.
	refT, _ := refSrv.Registry().Get(transport.DefaultTenant)
	for _, e := range entries {
		if err := refT.Ingest(e.User, e.Group, e.Values); err != nil {
			log.Print("daploadgen: reference ingest: ", err)
			return 1
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		lats     []float64
		firstErr error
	)
	start := time.Now()
	for i := range cluster {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := cluster[i].client.Tenant(transport.DefaultTenant)
			acc, l, _, err := drive(ctx, parts[i], 1, c.batch,
				makeSender(ctx, tc, "json", "", transport.DefaultTenant, 1, parts[i]))
			mu.Lock()
			accepted += acc
			lats = append(lats, l...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		log.Print("daploadgen: ", firstErr)
		return 1
	}
	rate := float64(accepted) / wall.Seconds()
	p50 := stats.Quantile(lats, 0.5)
	p90 := stats.Quantile(lats, 0.9)
	p99 := stats.Quantile(lats, 0.99)
	fmt.Printf("daploadgen: ingested %d reports across %d nodes in %v → %.0f reports/sec\n",
		accepted, c.nodes, wall.Round(time.Millisecond), rate)
	fmt.Printf("daploadgen: request latency ms p50=%.2f p90=%.2f p99=%.2f (n=%d)\n", p50, p90, p99, len(lats))

	// Seal every node (pushing its delta) and the reference, then compare
	// the coordinator's merged estimate against the reference's — field
	// for field, bit for bit.
	for i := range cluster {
		if _, err := cluster[i].client.Rotate(ctx); err != nil {
			// A node owning an empty group cannot estimate; the seal (and
			// the delta push) still happen through the engine.
			tn, _ := cluster[i].srv.Registry().Get(transport.DefaultTenant)
			if _, rerr := tn.Rotate(); rerr != nil {
				fmt.Printf("daploadgen: node %d rotate: %v (seal pushed regardless)\n", i, rerr)
			}
		}
	}
	want, err := refClient.Rotate(ctx)
	if err != nil {
		log.Print("daploadgen: reference rotate: ", err)
		return 1
	}
	got, err := coordClient.MergeEstimate(ctx, "")
	if err != nil {
		log.Print("daploadgen: merged estimate: ", err)
		return 1
	}
	failed := false
	if !reflect.DeepEqual(got, want) {
		fmt.Printf("daploadgen: FAIL merged estimate differs from single-collector reference\n got: %+v\nwant: %+v\n", got, want)
		failed = true
	} else {
		fmt.Printf("daploadgen: distributed equivalence OK: merged mean %.4f == reference (epoch %d)\n", got.Mean, got.Epoch)
	}
	if err := checkMergeMetrics(coordBase, c.nodes); err != nil {
		fmt.Printf("daploadgen: FAIL %v\n", err)
		failed = true
	} else {
		fmt.Println("daploadgen: merge metrics OK")
	}
	if c.minRate > 0 && rate < c.minRate {
		fmt.Printf("daploadgen: FAIL ingest rate %.0f < required %.0f reports/sec\n", rate, c.minRate)
		failed = true
	}
	if c.jsonOut != "" {
		rec := map[string]any{
			"nodes":           c.nodes,
			"users":           len(entries),
			"reports":         accepted,
			"batch":           c.batch,
			"gamma":           c.gamma,
			"wall_ms":         wall.Milliseconds(),
			"reports_per_sec": math.Round(rate),
			"latency_ms":      map[string]float64{"p50": round3(p50), "p90": round3(p90), "p99": round3(p99)},
			"equivalent":      !failed,
		}
		if err := mergeBenchJSON(c.jsonOut, "load_dist", rec); err != nil {
			log.Print("daploadgen: ", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "daploadgen: load_dist record merged into %s\n", c.jsonOut)
	}
	if failed {
		return 1
	}
	return 0
}

// checkMergeMetrics scrapes the coordinator and verifies the merge-plane
// families moved: every node's delta counted, the node gauge at N, and a
// publish-lag sample for the tenant.
func checkMergeMetrics(base string, nodes int) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		return err
	}
	var deltas float64
	for _, s := range sc.Samples {
		if s.Name == "dap_merge_deltas_total" {
			deltas += s.Value
		}
	}
	if deltas < float64(nodes) {
		return fmt.Errorf("dap_merge_deltas_total %g, want >= %d", deltas, nodes)
	}
	if v := sc.Value("dap_merge_nodes", nil); v != float64(nodes) {
		return fmt.Errorf("dap_merge_nodes %g, want %d", v, nodes)
	}
	lag := sc.Value("dap_merge_epoch_lag_seconds", map[string]string{"tenant": transport.DefaultTenant})
	if lag < 0 {
		return fmt.Errorf("dap_merge_epoch_lag_seconds %g: no epoch published", lag)
	}
	return nil
}
