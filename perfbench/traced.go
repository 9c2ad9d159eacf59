package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ldp"
	"repro/internal/ldp/pm"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wirebin"
	"repro/perfbench/stats"
)

// replayInput is what a workload hands the traced run: its generated
// population and how the workload grouped it into requests.
type replayInput struct {
	spec      core.Spec // the serving tenant's spec
	coSpec    core.Spec // the coordinator's spec (warm-free)
	pop       *population
	wire      string // the workload's ingest wire: "json" or "bin"
	batch     int    // entries per request
	frame     int    // entries per binary frame
	readEvery int    // requests between live reads
	nodes     int    // node tenants the stream is partitioned over
}

// perLayer lists the per-layer metrics, their units, and which way is
// better; every workload's traced run reports all of them.
var perLayer = []struct{ name, unit string }{
	{"transport.handle_json_us", "us"},
	{"transport.handle_frames_us", "us"},
	{"transport.self_ns_per_report", "ns"},
	{"wirebin.decode_ns_per_report", "ns"},
	{"wirebin.frame_bytes_per_report", "B"},
	{"stream.ingest_batch_ns_per_report", "ns"},
	{"stream.ingest_batch_wal_ns_per_report", "ns"},
	{"privacy.spendn_ns_per_call", "ns"},
	{"privacy.ledger_users", "count"},
	{"stream.heap_bytes_per_user", "B"},
	{"store.append_batch_ns_per_report", "ns"},
	{"store.wal_bytes_per_report", "B"},
	{"store.snapshot_ms", "ms"},
	{"stream.recover_s", "s"},
	{"stream.seal_ms", "ms"},
	{"stream.epoch_estimate_ms", "ms"},
	{"wirebin.delta_encode_ms", "ms"},
	{"wirebin.delta_decode_ms", "ms"},
	{"wirebin.delta_bytes", "B"},
	{"stream.coordinator_apply_ms", "ms"},
	{"core.estimate_hist_ms.d64", "ms"},
	{"core.estimate_hist_ms.d256", "ms"},
	{"core.estimate_hist_ms.d1024", "ms"},
	{"emf.iterations", "count"},
	{"emf.converged_ratio", "1"},
	{"stream.rejected_ratio", "1"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "1"},
	{"attribution.gap_ratio", "1"},
}

// request is one replayed request: its entries, pre-encoded bodies, the
// node it belongs to and whether an epoch ends after it.
type request struct {
	node     int
	entries  []store.IngestEntry
	jsonBody []byte
	binBody  []byte
	epochEnd bool // the last request of its node in this epoch
	epoch    int
}

// runTraced runs the workload once untraced (for the end-to-end figures
// the attribution compares against), then replays its inputs through
// each layer with spans recorded.
func runTraced(r *run, fn func(*run) (map[string]float64, error)) (map[string]float64, map[string]string, error) {
	e2e, err := fn(r)
	if err != nil {
		return nil, nil, err
	}
	in := r.replay
	reqs, err := buildRequests(in)
	if err != nil {
		return nil, nil, err
	}
	reports := float64(in.pop.reports)
	tr := newTracer(true)
	m := map[string]float64{}
	var rejected, entries int
	countRejects := func(errs []error) {
		entries += len(errs)
		for _, err := range errs {
			if err != nil {
				rejected++
			}
		}
	}

	// transport: the HTTP handlers on pre-encoded bodies, in-memory.
	for _, h := range []struct{ name, wire string }{
		{"transport.handle_json", "json"},
		{"transport.handle_frames", "bin"},
	} {
		if err := replayHandler(tr, h.name, in, reqs, h.wire); err != nil {
			return nil, nil, err
		}
	}
	// wirebin, privacy: after one warm-up pass, alternate untraced and
	// traced passes (three each) for the overhead ratio.
	var plain, traced time.Duration
	for i, on := range []bool{false, false, true, true, false, false, true} {
		t := newTracer(on)
		t0 := time.Now()
		if err := replayDecode(t, reqs); err != nil {
			return nil, nil, err
		}
		if _, err := replaySpend(t, in, reqs); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		switch {
		case i == 0: // warm-up
		case on:
			if traced == 0 {
				// The first traced pass's spans are the ones reported.
				tr.spans = append(tr.spans, rebase(t, tr)...)
			}
			traced += d
		default:
			plain += d
		}
	}
	m["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()
	ledgerUsers, err := replaySpend(newTracer(false), in, reqs)
	if err != nil {
		return nil, nil, err
	}
	m["privacy.ledger_users"] = float64(ledgerUsers)
	// stream, wirebin deltas, coordinator, emf: node tenants with seal hooks.
	st, err := replayStream(tr, r, in, reqs, countRejects)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range st {
		m[k] = v
	}
	// store and the durable stream path.
	if err := replayStore(tr, r, in, reqs); err != nil {
		return nil, nil, err
	}
	if err := replayDurable(tr, r, in, reqs, m, countRejects); err != nil {
		return nil, nil, err
	}
	// core: the estimator alone over histograms of the first epoch.
	for _, d := range []int{64, 256, 1024} {
		ms, err := estimateHistMs(in, d)
		if err != nil {
			return nil, nil, err
		}
		m["core.estimate_hist_ms.d"+strconv.Itoa(d)] = ms
	}

	// The layer spans read below are leaves, so their self time is their
	// whole duration; the phase and rotation spans above them keep only
	// the benchmark's own loop time as self time.
	total, self, each := tr.layerTimes()
	perReport := func(name string) float64 { return float64(self[name].Nanoseconds()) / reports }
	medianMs := func(name string) float64 {
		xs := make([]float64, len(each[name]))
		for i, d := range each[name] {
			xs[i] = float64(d.Nanoseconds()) / 1e6
		}
		return stats.Median(xs)
	}
	var frameBytes float64
	for _, q := range reqs {
		frameBytes += float64(len(q.binBody))
	}
	m["transport.handle_json_us"] = medianMs("transport.handle_json") * 1e3
	m["transport.handle_frames_us"] = medianMs("transport.handle_frames") * 1e3
	m["wirebin.decode_ns_per_report"] = perReport("wirebin.decode")
	m["wirebin.frame_bytes_per_report"] = frameBytes / reports
	m["stream.ingest_batch_ns_per_report"] = perReport("stream.ingest_batch")
	m["stream.ingest_batch_wal_ns_per_report"] = perReport("stream.ingest_batch_wal")
	m["privacy.spendn_ns_per_call"] = float64(total["privacy.spendn"].Nanoseconds()) / float64(len(in.pop.entries))
	m["store.append_batch_ns_per_report"] = perReport("store.append_batch")
	m["store.snapshot_ms"] = medianMs("store.snapshot")
	m["stream.recover_s"] = medianMs("stream.recover") / 1e3
	m["stream.seal_ms"] = medianMs("stream.seal")
	m["stream.epoch_estimate_ms"] = medianMs("stream.epoch_estimate")
	m["wirebin.delta_encode_ms"] = medianMs("wirebin.delta_encode")
	m["wirebin.delta_decode_ms"] = medianMs("wirebin.delta_decode")
	m["stream.coordinator_apply_ms"] = medianMs("stream.coordinator_apply")
	m["stream.rejected_ratio"] = float64(rejected) / float64(entries)
	m["loadgen.late_p99_ms"] = r.lateP99

	// Self time per report of each layer on this workload's path. The
	// handlers and the WAL tenant are opaque to the benchmark's spans, so
	// the layers inside them are separated by subtracting the same
	// entries' time in the layer below, measured alone.
	ingest := perReport("stream.ingest_batch")
	spend := perReport("privacy.spendn")
	layers := map[string]float64{
		"privacy": spend,
		"stream":  ingest - spend,
	}
	// ingest-json's timed phase holds no reads or rotations.
	if in.readEvery > 0 {
		layers["core+emf (live reads, epoch estimates)"] = (total["stream.estimate_live"] + total["stream.epoch_estimate"]).Seconds() * 1e9 / reports
	}
	switch in.wire {
	case "json":
		layers["transport"] = perReport("transport.handle_json") - ingest
	case "bin":
		decode := perReport("wirebin.decode")
		layers["transport"] = perReport("transport.handle_frames") - decode - ingest
		layers["wirebin"] = decode
	}
	if r.workload == "ingest-bin-wal" {
		app := perReport("store.append_batch")
		layers["store"] = app
		layers["stream (WAL coupling)"] = perReport("stream.ingest_batch_wal") - ingest - app
	}
	m["transport.self_ns_per_report"] = layers["transport"]
	if r.workload == "epoch-merge" {
		delete(layers, "transport")
		delete(layers, "wirebin")
		layers["stream (seal)"] = total["stream.seal"].Seconds() * 1e9 / reports
		layers["wirebin (delta codec)"] = total["wirebin.delta_encode"].Seconds() * 1e9 / reports
		layers["stream (coordinator)"] = (total["stream.coordinator_apply"] + total["stream.coordinator_estimate"]).Seconds() * 1e9 / reports
	}
	var sum float64
	for _, name := range sortedKeys(layers) {
		sum += layers[name]
		r.notef("attribution: %-40s %10.1f ns/report (self)", name, layers[name])
	}
	cpu := e2e["server_cpu_ns_per_report"]
	m["attribution.gap_ratio"] = (cpu - sum) / cpu
	r.notef("attribution: sum of layer self times %.1f ns/report vs server_cpu_ns_per_report %.1f ns/report (gap %.1f%%)",
		sum, cpu, 100*(cpu-sum)/cpu)
	r.notef("attribution: unmeasured: %s", unmeasured[r.workload])

	out := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.csv.gz", r.workload, r.seed))
	if err := tr.write(out); err != nil {
		return nil, nil, err
	}
	r.notef("spans: %d written to %s", len(tr.spans), out)
	units := map[string]string{}
	for _, p := range perLayer {
		units[p.name] = p.unit
	}
	return m, units, nil
}

// unmeasured names, per workload, the work no span covers.
var unmeasured = map[string]string{
	"ingest-json":    "HTTP framing and socket I/O, connection goroutines and the scheduler, GC background work, /metrics scrapes",
	"ingest-bin-wal": "HTTP framing and socket I/O, connection goroutines and the scheduler, GC background work, WAL write syscalls beyond the append path, /metrics scrapes",
	"epoch-merge":    "GC background work, goroutine scheduling, the benchmark's own loop between calls",
}

// rebase moves t's spans onto dst's time origin.
func rebase(t, dst *tracer) []span {
	shift := t.origin.Sub(dst.origin).Nanoseconds()
	out := make([]span, len(t.spans))
	base := int32(len(dst.spans))
	for i, s := range t.spans {
		s.start += shift
		s.end += shift
		if s.parent >= 0 {
			s.parent += base
		}
		out[i] = s
	}
	return out
}

// buildRequests groups the population the way the workload sent it and
// pre-encodes every body.
func buildRequests(in *replayInput) ([]request, error) {
	var reqs []request
	enc := new(wirebin.Encoder)
	var seq uint64
	lo := 0
	for e, end := range in.pop.epochEnd {
		parts := [][]store.IngestEntry{in.pop.entries[lo:end]}
		if in.nodes > 1 {
			parts = partition(in.pop.entries[lo:end], stripesOf(in.spec))
		}
		lo = end
		for n, part := range parts {
			bs := batches(part, in.batch)
			for i, b := range bs {
				q := request{node: n, entries: b, epoch: e, epochEnd: i == len(bs)-1}
				jr := transport.IngestRequest{Reports: make([]transport.ReportRequest, len(b))}
				for k, x := range b {
					jr.Reports[k] = transport.ReportRequest{User: x.User, Group: x.Group, Values: x.Values}
				}
				var err error
				if q.jsonBody, err = json.Marshal(jr); err != nil {
					return nil, err
				}
				for _, fb := range batches(b, in.frame) {
					seq++
					f, err := enc.Encode("", seq, fb)
					if err != nil {
						return nil, err
					}
					q.binBody = binary.AppendUvarint(q.binBody, uint64(len(f)))
					q.binBody = append(q.binBody, f...)
				}
				reqs = append(reqs, q)
			}
		}
	}
	return reqs, nil
}

// stripesOf returns the stripe count a tenant serving sp uses.
func stripesOf(sp core.Spec) int {
	t, err := stream.NewTenantSpec("probe", sp)
	if err != nil {
		return 1
	}
	return t.Shards()
}

// replayHandler posts every request body to an in-memory collector's
// handler, one span per request.
func replayHandler(tr *tracer, name string, in *replayInput, reqs []request, wire string) error {
	srv, err := transport.NewServerSpec(in.spec)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	root := tr.begin("phase."+name, -1, -1)
	defer tr.end(root)
	for i, q := range reqs {
		body, ctype := q.jsonBody, "application/json"
		if wire == "bin" {
			body, ctype = q.binBody, wirebin.ContentTypeStream
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		id := tr.begin(name, root, int64(i))
		h.ServeHTTP(rec, req)
		tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s request %d: status %d: %s", name, i, rec.Code, rec.Body.String())
		}
	}
	return nil
}

// replayDecode decodes every frame of every request body.
func replayDecode(tr *tracer, reqs []request) error {
	var dec wirebin.Decoder
	root := tr.begin("phase.wirebin.decode", -1, -1)
	defer tr.end(root)
	for i, q := range reqs {
		id := tr.begin("wirebin.decode", root, int64(i))
		for p := q.binBody; len(p) > 0; {
			n, k := binary.Uvarint(p)
			if k <= 0 || uint64(len(p)-k) < n {
				return fmt.Errorf("request %d: bad frame stream", i)
			}
			if _, err := dec.Decode(p[k : k+int(n)]); err != nil {
				return err
			}
			p = p[k+int(n):]
		}
		tr.end(id)
	}
	return nil
}

// replaySpend charges every entry to a fresh accountant and returns the
// ledger's user count.
func replaySpend(tr *tracer, in *replayInput, reqs []request) (int, error) {
	a, err := privacy.NewAccountant(in.spec.Eps)
	if err != nil {
		return 0, err
	}
	root := tr.begin("phase.privacy.spendn", -1, -1)
	defer tr.end(root)
	for i, q := range reqs {
		id := tr.begin("privacy.spendn", root, int64(i))
		for _, e := range q.entries {
			if err := a.SpendN(e.User, in.pop.groups[e.Group].Eps, len(e.Values)); err != nil {
				return 0, err
			}
		}
		tr.end(id)
	}
	return a.Users(), nil
}

// replayStream ingests into in-memory node tenants, reads live
// estimates, and seals every epoch through the delta codec into a
// coordinator. It returns the stream-level figures the spans cannot.
func replayStream(tr *tracer, r *run, in *replayInput, reqs []request, countRejects func([]error)) (map[string]float64, error) {
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ids := make([]string, in.nodes)
	nodes := make([]*stream.Tenant, in.nodes)
	var (
		sealAt time.Time
		delta  *stream.EpochDelta
	)
	for n := range nodes {
		ids[n] = "node-" + strconv.Itoa(n)
		t, err := stream.NewTenantSpec(transport.DefaultTenant, in.spec)
		if err != nil {
			return nil, err
		}
		id := ids[n]
		t.SetSealHook(func(d *stream.EpochDelta) {
			sealAt = time.Now()
			d.Node = id
			delta = d
		})
		nodes[n] = t
	}
	co, err := stream.NewCoordinator(stream.CoordinatorConfig{Nodes: ids, Straggler: time.Hour})
	if err != nil {
		return nil, err
	}
	if err := co.AddTenantSpec(transport.DefaultTenant, in.coSpec); err != nil {
		return nil, err
	}
	var iters, estimates, converged float64
	note := func(res *core.Result) {
		estimates++
		iters += float64(res.EMFIters)
		if res.Converged {
			converged++
		}
	}
	root := tr.begin("phase.stream", -1, -1)
	perNode := make([]int, in.nodes)
	merging := true
	var deltaBytes []float64
	for i, q := range reqs {
		t := nodes[q.node]
		id := tr.begin("stream.ingest_batch", root, int64(i))
		errs := t.IngestBatch(q.entries)
		tr.end(id)
		countRejects(errs)
		if perNode[q.node]++; in.readEvery > 0 && perNode[q.node]%in.readEvery == 0 {
			id := tr.begin("stream.estimate_live", root, int64(i))
			_, err := t.Estimate(true)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		if !q.epochEnd {
			continue
		}
		req := int64(-1 - q.epoch)
		rot := tr.begin("stream.rotate", root, req)
		t0 := time.Now()
		snap, err := t.Rotate()
		end := time.Now()
		tr.end(rot)
		if delta == nil {
			return nil, fmt.Errorf("node %d epoch %d: seal hook did not fire", q.node, q.epoch)
		}
		tr.record("stream.seal", rot, req, t0, sealAt)
		tr.record("stream.epoch_estimate", rot, req, sealAt, end)
		if err != nil {
			return nil, fmt.Errorf("node %d rotate: %w", q.node, err)
		}
		note(snap.Result)
		id = tr.begin("wirebin.delta_encode", root, req)
		frame, err := wirebin.EncodeDelta(delta)
		tr.end(id)
		sealMs := float64(sealAt.Sub(t0).Nanoseconds()) / 1e6
		if err != nil {
			// A ledger past the delta frame's limits cannot leave the
			// node; the merge plane stops at the first such epoch.
			r.notef("epoch %2d node %d: cumulative ledger %8d users, seal %8.2f ms, delta not encodable: %v",
				q.epoch+1, q.node, len(delta.Spend), sealMs, err)
			merging = false
			delta = nil
			continue
		}
		r.notef("epoch %2d node %d: cumulative ledger %8d users, seal %8.2f ms, delta %9d B",
			q.epoch+1, q.node, len(delta.Spend), sealMs, len(frame))
		delta = nil
		deltaBytes = append(deltaBytes, float64(len(frame)))
		id = tr.begin("wirebin.delta_decode", root, req)
		_, err = wirebin.DecodeDelta(frame)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if !merging {
			continue
		}
		id = tr.begin("stream.coordinator_apply", root, req)
		_, err = co.Apply(frame)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if q.node == in.nodes-1 {
			id = tr.begin("stream.coordinator_estimate", root, req)
			snap, err := co.Estimate(transport.DefaultTenant)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			note(snap.Result)
		}
	}
	tr.end(root)
	out := map[string]float64{
		"wirebin.delta_bytes": stats.Median(deltaBytes),
		"emf.iterations":      iters / estimates,
		"emf.converged_ratio": converged / estimates,
	}
	co = nil
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out["stream.heap_bytes_per_user"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / float64(in.pop.users)
	runtime.KeepAlive(nodes)
	return out, nil
}

// replayStore appends every request's entries to a bare store.
func replayStore(tr *tracer, r *run, in *replayInput, reqs []request) error {
	dir := r.path("trace-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		return err
	}
	root := tr.begin("phase.store.append_batch", -1, -1)
	defer tr.end(root)
	for i, q := range reqs {
		id := tr.begin("store.append_batch", root, int64(i))
		_, err := st.AppendIngestBatch(transport.DefaultTenant, q.entries)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayDurable ingests into a tenant on a store (fsync=os), then times
// a registry snapshot and a recovery of the store.
func replayDurable(tr *tracer, r *run, in *replayInput, reqs []request, m map[string]float64, countRejects func([]error)) error {
	dir := r.path("trace-durable")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return err
	}
	reg, _, err := stream.Recover(st)
	if err != nil {
		st.Close()
		return err
	}
	t, err := reg.CreateSpec(transport.DefaultTenant, in.spec)
	if err != nil {
		reg.Close()
		st.Close()
		return err
	}
	root := tr.begin("phase.stream.ingest_batch_wal", -1, -1)
	for i, q := range reqs {
		id := tr.begin("stream.ingest_batch_wal", root, int64(i))
		errs := t.IngestBatch(q.entries)
		tr.end(id)
		countRejects(errs)
	}
	m["store.wal_bytes_per_report"] = float64(st.Health().WALBytes) / float64(in.pop.reports)
	id := tr.begin("store.snapshot", root, -1)
	err = reg.Snapshot()
	tr.end(id)
	tr.end(root)
	reg.Close()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	id = tr.begin("stream.recover", -1, -1)
	st, err = store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return err
	}
	defer st.Close()
	reg, _, err = stream.Recover(st)
	tr.end(id)
	if err != nil {
		return err
	}
	reg.Close()
	return nil
}

// estimateHistMs builds the first epoch's per-group histograms at d′ = d
// and returns the median wall time of three EstimateHist calls, after
// one call that builds the transform matrices.
func estimateHistMs(in *replayInput, d int) (float64, error) {
	est, err := core.Build(in.spec)
	if err != nil {
		return 0, err
	}
	groups := est.Groups()
	hc := &core.HistCollection{Counts: make([][]float64, len(groups)), Sums: make([]float64, len(groups))}
	discs := make([]ldp.Discretizer, len(groups))
	for i, g := range groups {
		m, err := pm.New(g.Eps)
		if err != nil {
			return 0, err
		}
		discs[i] = ldp.NewDiscretizer(m.OutputDomain(), d)
		hc.Counts[i] = make([]float64, d)
	}
	for _, e := range in.pop.entries[:in.pop.epochEnd[0]] {
		for _, v := range e.Values {
			if k, ok := discs[e.Group].Index(v); ok {
				hc.Counts[e.Group][k]++
				hc.Sums[e.Group] += v
			}
		}
	}
	ctx := context.Background()
	if _, err := est.EstimateHist(ctx, hc); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := est.EstimateHist(ctx, hc); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return stats.Median(xs), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
