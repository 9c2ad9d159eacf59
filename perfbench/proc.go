package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// collector is one dapcollect process the benchmark started.
type collector struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	done    chan struct{} // closed once the process has been waited for
	log     *os.File
}

// children tracks every live collector so an interrupted benchmark can
// still stop them all (see stopAll).
var children struct {
	sync.Mutex
	set map[*collector]bool
}

// freePort reserves an ephemeral loopback port and releases it for the
// collector to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startCollector launches bin with args plus a fresh -addr and returns
// once the process runs (not once it is ready; see waitReady).
func startCollector(bin, logPath string, args ...string) (*collector, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	c := &collector{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: lf}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	children.Lock()
	if children.set == nil {
		children.set = map[*collector]bool{}
	}
	children.set[c] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed collector is expected
		lf.Close()
		children.Lock()
		delete(children.set, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// waitReady polls GET /v1/config until it answers 200 and returns the
// time since the process was started.
func (c *collector) waitReady(hc *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return 0, fmt.Errorf("collector exited before it was ready (see %s)", c.log.Name())
		default:
		}
		resp, err := hc.Get(c.base + "/v1/config")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("collector not ready after %v", timeout)
}

// kill9 sends SIGKILL and waits for the process to be reaped.
func (c *collector) kill9() {
	_ = c.cmd.Process.Kill() // fails only if the process already exited
	<-c.done
}

// stop sends SIGTERM, waits up to 30 s for a graceful exit, and kills the
// process otherwise.
func (c *collector) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		c.kill9()
	}
}

// stopAll kills every collector still running.
func stopAll() {
	children.Lock()
	var live []*collector
	for c := range children.set {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill9()
	}
}

// userHZ is the kernel's clock-tick rate for /proc CPU times (USER_HZ,
// 100 on every Linux architecture Go supports).
const userHZ = 100

// cpuTime returns the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// procStatusKB returns a "kB" field of /proc/<pid>/status (VmHWM, VmRSS).
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// httpDo sends one request and returns the status and the whole body.
func httpDo(ctx context.Context, hc *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scrape fetches /metrics and returns the default tenant's sample of the
// named family (0 when absent).
func scrape(ctx context.Context, hc *http.Client, base, family string) (float64, error) {
	st, body, err := httpDo(ctx, hc, http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return 0, err
	}
	if st != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", st)
	}
	sc, err := metrics.Parse(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return sc.Value(family, map[string]string{"tenant": transport.DefaultTenant}), nil
}
