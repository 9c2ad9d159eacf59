package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

// jobKind is what one generator operation does.
type jobKind int

const (
	jobIngest jobKind = iota
	jobRead           // GET /v1/estimate?live=1
	jobRotate         // POST /v1/rotate
)

// job is one pre-encoded collector request.
type job struct {
	kind    jobKind
	ctype   string
	body    []byte
	reports int
	due     time.Duration // open loop: offset from the start of the schedule
}

// schedule turns a population into the generator's request sequence:
// one ingest per batch of users (JSON) or per frames·batch users
// (coalesced binary frames), a live read after every readEvery ingests
// (0 = none) and, with rotate, a rotation at each epoch end. Everything
// is encoded here, before timing starts.
func schedule(p *population, wire string, batch, frames, readEvery int, rotate bool) ([]job, error) {
	var jobs []job
	ingests := 0
	enc := new(wirebin.Encoder)
	var seq uint64
	emit := func(entries []store.IngestEntry) error {
		j := job{kind: jobIngest, reports: countReports(entries)}
		switch wire {
		case "json":
			req := transport.IngestRequest{Reports: make([]transport.ReportRequest, len(entries))}
			for i, e := range entries {
				req.Reports[i] = transport.ReportRequest{User: e.User, Group: e.Group, Values: e.Values}
			}
			b, err := json.Marshal(req)
			if err != nil {
				return err
			}
			j.ctype, j.body = "application/json", b
		case "bin":
			var body []byte
			for _, fb := range batches(entries, batch) {
				seq++
				frame, err := enc.Encode("", seq, fb)
				if err != nil {
					return err
				}
				body = binary.AppendUvarint(body, uint64(len(frame)))
				body = append(body, frame...)
			}
			j.ctype, j.body = wirebin.ContentTypeStream, body
		}
		jobs = append(jobs, j)
		ingests++
		if readEvery > 0 && ingests%readEvery == 0 {
			jobs = append(jobs, job{kind: jobRead})
		}
		return nil
	}
	per := batch * max(frames, 1)
	lo := 0
	for _, end := range p.epochEnd {
		for ; lo < end; lo = min(lo+per, end) {
			if err := emit(p.entries[lo:min(lo+per, end)]); err != nil {
				return nil, err
			}
		}
		if rotate {
			jobs = append(jobs, job{kind: jobRotate})
		}
	}
	return jobs, nil
}

// loadResult is what one generator run observed.
type loadResult struct {
	wall              time.Duration
	acked             int
	attempted, failed int
	firstErr          error
	ingestMs          []float64 // per ingest request; open loop: from its due time
	readMs            []float64
	rotateMs          []float64
	lateMs            []float64 // open loop: how late the generator dispatched each job
	published         []*transport.EstimateResponse
}

// add folds o into r; timed says whether o's wall time is part of the
// timed phase.
func (r *loadResult) add(o *loadResult, timed bool) {
	if timed {
		r.wall += o.wall
	}
	r.acked += o.acked
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.ingestMs = append(r.ingestMs, o.ingestMs...)
	r.readMs = append(r.readMs, o.readMs...)
	r.rotateMs = append(r.rotateMs, o.rotateMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.published = append(r.published, o.published...)
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}, Timeout: 60 * time.Second}
}

// maxConns is the generator's connection budget: one per CPU.
func maxConns(want int) int { return min(want, runtime.NumCPU()) }

// drive runs jobs against base over conns connections. open makes it an
// open loop: each job is due at the start plus its due offset and an
// ingest's latency runs from that moment. Otherwise it is a closed loop:
// each connection sends its next job when the previous one returns.
func drive(ctx context.Context, hc *http.Client, base string, jobs []job, conns int, open bool) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	type item struct {
		j   *job
		due time.Time
	}
	// Buffered to the job count: the open-loop dispatcher never blocks on
	// busy connections, so queueing shows up as latency, not as a late
	// generator.
	ch := make(chan item, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				from := time.Now()
				if open {
					from = it.due
				}
				lat, err := send(ctx, hc, base, it.j, res, &mu)
				ms := float64(time.Since(from).Nanoseconds()) / 1e6
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(err)
				}
				switch it.j.kind {
				case jobIngest:
					res.ingestMs = append(res.ingestMs, ms)
				case jobRead:
					res.readMs = append(res.readMs, lat)
				case jobRotate:
					res.rotateMs = append(res.rotateMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		j := &jobs[i]
		due := start
		if open {
			due = start.Add(j.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			res.lateMs = append(res.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		}
		ch <- item{j: j, due: due}
	}
	close(ch)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// send performs one job and returns its own latency in ms.
func send(ctx context.Context, hc *http.Client, base string, j *job, res *loadResult, mu *sync.Mutex) (float64, error) {
	t0 := time.Now()
	var (
		st   int
		body []byte
		err  error
	)
	switch j.kind {
	case jobIngest:
		st, body, err = httpDo(ctx, hc, http.MethodPost, base+"/v1/ingest", j.ctype, j.body)
	case jobRead:
		st, body, err = httpDo(ctx, hc, http.MethodGet, base+"/v1/estimate?live=1", "", nil)
	case jobRotate:
		st, body, err = httpDo(ctx, hc, http.MethodPost, base+"/v1/rotate", "", nil)
	}
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return lat, err
	}
	if st != http.StatusOK {
		return lat, fmt.Errorf("job %d: status %d: %s", j.kind, st, body)
	}
	switch j.kind {
	case jobIngest:
		var ir transport.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			return lat, err
		}
		mu.Lock()
		res.acked += ir.Accepted
		mu.Unlock()
		if ir.Rejected > 0 || ir.Accepted != j.reports {
			return lat, fmt.Errorf("ingest: %d accepted, %d rejected of %d: %v", ir.Accepted, ir.Rejected, j.reports, ir.Errors)
		}
	case jobRotate:
		var er transport.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return lat, err
		}
		mu.Lock()
		res.published = append(res.published, &er)
		mu.Unlock()
	}
	return lat, nil
}
