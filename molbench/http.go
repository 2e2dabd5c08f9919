package main

// The HTTP workloads: moleculed's two servers, httpd.Server (serve) and
// httpd.ClusterServer (serve-cluster), on loopback via httptest, driven from
// this process over at most two connections. Each run has an open-loop
// phase at a fixed rate, which gives latency, and a closed-loop phase on
// both connections, which gives throughput.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpd"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/workloads"
)

const (
	conns           = 2     // client connections, and kernel workers for the cluster
	clusterMachines = 4     // serve-cluster machines, 2 DPUs each
	clusterRate     = 3000  // serve-cluster open-loop rate, req/s
	setupReps       = 101   // set-ups per run; setup_s is their median
	warmReqs        = 60000 // closed-loop warm-up requests per server
	mixSize         = 1 << 15
	chainShare      = 0.10 // MapReduce chains, both servers
	fpgaShare       = 0.05 // FPGA invokes, serve only
	bodyShare       = 0.04 // invokes with real compute, serve only
	bodyBytes       = 4096 // input size of every real-compute invoke
	idHeader        = "X-Molbench-Id"
	window          = 1.0 // seconds per window of the per-window figures
)

var (
	cpuFns   = workloads.FunctionBenchNames()
	fpgaFns  = []string{"vmult", "mscale", "madd"}
	chainFns = workloads.MapReduceChain()
)

type reqKind uint8

const (
	kindInvoke reqKind = iota // warm single invoke, no compute body
	kindBody                  // single invoke running its real compute body
	kindFPGA                  // single invoke of an FPGA-deployed function
	kindChain                 // the MapReduce chain
)

// httpReq is one generated request.
type httpReq struct {
	kind reqKind
	fn   string // "" for chains
	path string
}

// makeMix draws n requests from the seeded mix: Zipf(1.1) popularity over
// the eight FunctionBench functions, with chain, FPGA and compute shares
// on top (the cluster server gets chains and plain invokes only).
func makeMix(seed int64, n int, cluster bool) []httpReq {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(cpuFns)-1))
	chainPath := "/chain?fns=" + strings.Join(chainFns, ",")
	out := make([]httpReq, n)
	for i := range out {
		u := rng.Float64()
		switch {
		case u < chainShare:
			out[i] = httpReq{kind: kindChain, path: chainPath}
		case !cluster && u < chainShare+fpgaShare:
			fn := fpgaFns[rng.Intn(len(fpgaFns))]
			out[i] = httpReq{kind: kindFPGA, fn: fn, path: "/invoke?fn=" + fn}
		case !cluster && u < chainShare+fpgaShare+bodyShare:
			fn := cpuFns[zipf.Uint64()]
			out[i] = httpReq{kind: kindBody, fn: fn, path: fmt.Sprintf("/invoke?fn=%s&body=1&bytes=%d", fn, bodyBytes)}
		default:
			fn := cpuFns[zipf.Uint64()]
			out[i] = httpReq{kind: kindInvoke, fn: fn, path: "/invoke?fn=" + fn + "&body=0"}
		}
	}
	return out
}

// deployPaths are the set-up requests: every function the mix uses.
func deployPaths(cluster bool) []string {
	var out []string
	for _, fn := range append(append([]string(nil), cpuFns...), chainFns...) {
		out = append(out, "/deploy?fn="+fn+"&profiles=cpu,dpu")
	}
	if !cluster {
		for _, fn := range fpgaFns {
			out = append(out, "/deploy?fn="+fn+"&profiles=fpga")
		}
	}
	return out
}

// handlerTimer wraps a server's Handler() and times each request it
// serves, keyed by the client's request id.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if id := r.Header.Get(idHeader); id != "" {
		h.mu.Lock()
		h.byID[id] = d
		h.mu.Unlock()
	}
}

// take returns and forgets the handler time of one request. The wrapper
// stores it before net/http flushes the reply, so it is there once the
// client has read the reply.
func (h *handlerTimer) take(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byID[id]
	delete(h.byID, id)
	return d, ok
}

// sut is one server under test with its loopback listener and client.
type sut struct {
	cluster bool
	single  *httpd.Server
	cs      *httpd.ClusterServer
	timer   *handlerTimer // traced runs only
	ts      *httptest.Server
	tr      *http.Transport
	client  *http.Client
	nextID  atomic.Int64
}

// startSUT builds a server, serves it on loopback and deploys the mix's
// functions over HTTP. The returned duration is the set-up time a user
// pays before the first invoke.
func startSUT(cluster, traced bool) (*sut, time.Duration, error) {
	start := time.Now()
	s := &sut{cluster: cluster}
	var h http.Handler
	if cluster {
		cs, err := httpd.NewClusterServer(clusterMachines, hw.Config{DPUs: 2}, molecule.DefaultOptions())
		if err != nil {
			return nil, 0, err
		}
		cs.SetWorkers(conns)
		s.cs, h = cs, cs.Handler()
	} else {
		srv, err := httpd.NewServer(hw.Config{DPUs: 2, FPGAs: 1}, molecule.DefaultOptions())
		if err != nil {
			return nil, 0, err
		}
		s.single, h = srv, srv.Handler()
	}
	if traced {
		s.timer = &handlerTimer{next: h, byID: map[string]time.Duration{}}
		h = s.timer
	}
	s.ts = httptest.NewServer(h)
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	for _, p := range deployPaths(cluster) {
		if _, err := s.call(http.MethodPost, p); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// close stops the listener and waits for every in-flight handler.
func (s *sut) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
}

// call makes one request outside the measured phases and returns its
// body, failing on any non-2xx status.
func (s *sut) call(method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// tally is one connection's record of a phase; phases merge them.
type tally struct {
	attempted, ok     int64
	failures          []string
	status4xx, s5xx   int64
	lat               []float64 // ms: due latency (open loop) or round trip (closed loop)
	at                []float64 // s into the phase: due time (open loop) or completion (closed loop)
	late              []float64 // ms: open-loop send lateness
	virt              []float64 // ms: virtual latency of single invokes
	virtSum           float64   // ms: virtual latency of every request, chains too
	exec              []float64 // ms: virtual handler execution of single invokes
	startup           []float64 // ms: virtual startup of cold single invokes
	invocations, cold int64
	handler, overhead []float64 // ms, traced runs only
}

func (t *tally) fail(reason string) {
	if len(t.failures) < 5 {
		t.failures = append(t.failures, reason)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failures = append(t.failures, o.failures...)
	t.status4xx += o.status4xx
	t.s5xx += o.s5xx
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
	t.late = append(t.late, o.late...)
	t.virt = append(t.virt, o.virt...)
	t.virtSum += o.virtSum
	t.exec = append(t.exec, o.exec...)
	t.startup = append(t.startup, o.startup...)
	t.invocations += o.invocations
	t.cold += o.cold
	t.handler = append(t.handler, o.handler...)
	t.overhead = append(t.overhead, o.overhead...)
}

// reply holds the fields of an /invoke or /chain reply that are checked.
type reply struct {
	Fn         string          `json:"fn"`
	Fns        []string        `json:"fns"`
	Cold       bool            `json:"cold"`
	StartupMs  float64         `json:"startup_ms"`
	ExecMs     float64         `json:"exec_ms"`
	TotalMs    float64         `json:"total_ms"`
	EdgeMs     []float64       `json:"edge_ms"`
	ColdStarts int             `json:"cold_starts"`
	Output     json.RawMessage `json:"output"`
}

// checker holds the cross-request output check: real compute on the same
// function and input must give the same output every time.
type checker struct {
	mu      sync.Mutex
	outputs map[string]string
}

// check validates one reply and, when it is correct, adds its virtual
// figures to t.
func (c *checker) check(req httpReq, status int, body []byte, t *tally) error {
	if status/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", req.path, status, strings.TrimSpace(string(body)))
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("%s: undecodable reply: %v", req.path, err)
	}
	if req.kind == kindChain {
		if !slices.Equal(rep.Fns, chainFns) {
			return fmt.Errorf("%s: reply names fns %v", req.path, rep.Fns)
		}
		if len(rep.EdgeMs) != len(rep.Fns)-1 {
			return fmt.Errorf("%s: %d edges for %d functions", req.path, len(rep.EdgeMs), len(rep.Fns))
		}
		t.invocations += int64(len(rep.Fns))
		t.cold += int64(rep.ColdStarts)
		t.virtSum += rep.TotalMs
		return nil
	}
	if rep.Fn != req.fn {
		return fmt.Errorf("%s: reply names fn %q", req.path, rep.Fn)
	}
	if req.kind == kindBody {
		out := string(rep.Output)
		if out == "" || out == "null" {
			return fmt.Errorf("%s: no output", req.path)
		}
		c.mu.Lock()
		prev, seen := c.outputs[req.fn]
		if !seen {
			c.outputs[req.fn] = out
		}
		c.mu.Unlock()
		if seen && prev != out {
			return fmt.Errorf("%s: output %s, earlier %s", req.path, out, prev)
		}
	}
	t.invocations++
	if rep.Cold {
		t.cold++
		t.startup = append(t.startup, rep.StartupMs)
	}
	t.exec = append(t.exec, rep.ExecMs)
	t.virt = append(t.virt, rep.TotalMs)
	t.virtSum += rep.TotalMs
	return nil
}

// do sends one measured request and checks its reply. It returns when the
// reply has been read, and whether it passed.
func (s *sut) do(req httpReq, chk *checker, t *tally) bool {
	t.attempted++
	hreq, err := http.NewRequest(http.MethodPost, s.ts.URL+req.path, nil)
	if err != nil {
		t.fail(err.Error())
		return false
	}
	var id string
	if s.timer != nil {
		id = fmt.Sprint(s.nextID.Add(1))
		hreq.Header.Set(idHeader, id)
	}
	start := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		t.fail(err.Error())
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	switch resp.StatusCode / 100 {
	case 4:
		t.status4xx++
	case 5:
		t.s5xx++
	}
	if err == nil {
		err = chk.check(req, resp.StatusCode, body, t)
	}
	if err != nil {
		t.fail(err.Error())
		return false
	}
	t.ok++
	if id != "" {
		if h, ok := s.timer.take(id); ok {
			t.handler = append(t.handler, msOf(h))
			t.overhead = append(t.overhead, msOf(rtt-h))
		}
	}
	return true
}

// stream hands out the pre-generated mix in order, wrapping around.
type stream struct {
	mix  []httpReq
	next atomic.Int64
}

func (st *stream) take() httpReq {
	return st.mix[int(st.next.Add(1)-1)%len(st.mix)]
}

// openLoop sends rate requests per second for d, each due at a fixed
// point of the schedule whatever happened to earlier ones, over conns
// connections. Latency runs from the due time; a failed request counts as
// infinitely late.
func (s *sut) openLoop(st *stream, chk *checker, rate float64, d time.Duration) *tally {
	n := int(rate * d.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	type job struct {
		req httpReq
		due time.Time
	}
	// Sized to every send of the phase, so the schedule never waits for the
	// server: a stall shows as lateness and latency, not as a slower rate.
	jobs := make(chan job, n)
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for j := range jobs {
				t.late = append(t.late, msOf(lateness(j.due, time.Now())))
				t.at = append(t.at, j.due.Sub(start).Seconds())
				if s.do(j.req, chk, t) {
					t.lat = append(t.lat, msOf(dueLatency(j.due, time.Now())))
				} else {
					t.lat = append(t.lat, math.Inf(1))
				}
			}
		}(&tallies[c])
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{st.take(), due}
	}
	close(jobs)
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// closedLoop keeps conns requests outstanding for d and returns the tally
// and the phase's wall time.
func (s *sut) closedLoop(st *stream, chk *checker, d time.Duration) (*tally, time.Duration) {
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if s.do(st.take(), chk, t) {
					now := time.Now()
					t.lat = append(t.lat, msOf(now.Sub(t0)))
					t.at = append(t.at, now.Sub(start).Seconds())
				}
			}
		}(&tallies[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, elapsed
}

// warm sends every kind of request once, then warmReqs more over both
// connections, so measured phases see warm instances and a grown heap.
// The server's GC stalls, which set the open loop's tail, lengthen as its
// heap grows over roughly its first 50000 requests and then hold steady;
// a shorter warm-up leaves the open loop's p99 on that slope, where it
// varies from run to run with how far up the slope each window sits.
// It sends a fixed number of requests, not requests for a fixed time, so
// the memory read after the open loop covers the same work however fast
// the server is.
func (s *sut) warm(st *stream, chk *checker) *tally {
	t := &tally{}
	seen := map[string]bool{}
	for _, r := range st.mix {
		if !seen[r.path] {
			seen[r.path] = true
			s.do(r, chk, t)
		}
	}
	tallies := make([]tally, conns)
	var left atomic.Int64
	left.Store(warmReqs)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				s.do(st.take(), chk, t)
			}
		}(&tallies[c])
	}
	wg.Wait()
	for i := range tallies {
		t.merge(&tallies[i])
	}
	return t
}

// setupTimes builds, times and closes n servers.
func setupTimes(cluster bool, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		s, d, err := startSUT(cluster, false)
		if err != nil {
			return nil, err
		}
		s.close()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// runHTTP runs the serve (cluster=false) or serve-cluster workload.
func runHTTP(cfg runConfig, cluster bool) (*outcome, error) {
	if cfg.rate <= 0 {
		return nil, errors.New("open-loop rate must be positive")
	}
	oc := newOutcome()
	oc.raw["open_loop_rate"] = cfg.rate
	// The open-loop phase reads the mix from its start, so its requests
	// are fixed by the seed; warm-up and the closed loop, whose request
	// counts vary, share a second cursor over the same mix.
	mix := makeMix(cfg.seed, mixSize, cluster)
	st, openSt := &stream{mix: mix}, &stream{mix: mix}
	chk := &checker{outputs: map[string]string{}}
	// Time set aside for each warm-up, which sends warmReqs however long
	// that takes (about 6 s on a 2-vCPU box); the rest of the budget goes
	// to the measured phases.
	warmFor := cfg.duration / 5

	// Set-up is repeated and its median reported, so that one slow build
	// does not move setup_s. Half the builds run before the workload and
	// half after it, so a passing disturbance meets only some of them.
	setups, err := setupTimes(cluster, setupReps/2)
	if err != nil {
		return nil, err
	}
	s, d, err := startSUT(cluster, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d.Seconds())
	all := s.warm(st, chk)

	if !cfg.traced {
		phase := (cfg.duration - warmFor) / 2
		open := s.openLoop(openSt, chk, cfg.rate, phase)
		// Peak memory so far covers set-up, warm-up and the open loop: a
		// fixed amount of work. The closed loop serves as many requests as
		// the server manages, and the server keeps state for each one.
		oc.values["peak_rss_mb"] = peakRSSMB()
		closed, elapsed := s.closedLoop(st, chk, phase)
		s.close()
		all.merge(open)
		all.merge(closed)
		// Throughput and latency are medians over one-second windows, so
		// one stalled stretch (a neighbour taking the CPU) moves them less
		// than it would move figures over the whole phase. A 250 ms stall
		// alone delays about 1% of an open loop's requests by up to 250 ms,
		// enough to set the p99 of the phase; it sets the p99 of one or two
		// windows only. Each window holds thousands of requests and several
		// GC cycles, which is where the tail comes from.
		rates := windowRates(closed.at, window, elapsed.Seconds())
		p50s := windowed(open.at, open.lat, window, phase.Seconds(), 50)
		p99s := windowed(open.at, open.lat, window, phase.Seconds(), 99)
		oc.values["throughput_rps"] = median(rates)
		oc.values["p50_ms"] = median(p50s)
		oc.values["p99_ms"] = median(p99s)
		oc.raw["window_rps"] = rates
		oc.raw["window_p50_ms"] = p50s
		oc.raw["window_p99_ms"] = p99s
		oc.raw["window_late_ms"] = windowed(open.at, open.late, window, phase.Seconds(), 50)
		// Virtual figures come from the open-loop phase, whose requests are
		// fixed by the seed. Both servers run one request at a time, so
		// requests per simulated second is the count over their summed
		// simulated latency.
		oc.values["virt_mean_ms"] = mean(open.virt)
		if open.virtSum > 0 {
			oc.values["virt_rps"] = float64(open.ok) / (open.virtSum / 1000)
		}
		oc.raw["open_loop"] = map[string]any{
			"sent": len(open.lat), "window_samples_beyond_p99": int(cfg.rate*window) / 100,
			"lat_ms_p50": percentile(open.lat, 50), "lat_ms_p99": percentile(open.lat, 99),
			"late_ms_mean": mean(open.late), "late_ms_p99": percentile(open.late, 99),
			"lat_ms_p90": percentile(open.lat, 90), "lat_ms_p95": percentile(open.lat, 95), "lat_ms_max": percentile(open.lat, 100),
		}
		oc.raw["closed_loop"] = map[string]any{
			"completed": closed.ok, "seconds": elapsed.Seconds(), "throughput_rps": float64(closed.ok) / elapsed.Seconds(),
			"rtt_ms_p50": percentile(closed.lat, 50), "rtt_ms_p99": percentile(closed.lat, 99),
		}
		more, err := setupTimes(cluster, setupReps-len(setups))
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		oc.values["setup_s"] = median(setups)
		oc.raw["setup_s"] = setups
		finishHTTP(oc, all)
		return oc, nil
	}

	// Traced run: a closed-loop reference on the untraced server, then a
	// fresh server with the handler timer under CPU and block profiles for
	// both phases.
	phase := (cfg.duration - 2*warmFor) / 5
	ref, refElapsed := s.closedLoop(st, chk, phase)
	all.merge(ref)
	s.close()
	ps, _, err := startSUT(cluster, true)
	if err != nil {
		return nil, err
	}
	tracedStart := time.Now()
	all.merge(ps.warm(st, chk))
	tr, err := startTrace(true, cfg.profDir)
	if err != nil {
		ps.close()
		return nil, err
	}
	open := ps.openLoop(openSt, chk, cfg.rate, 2*phase)
	if !cluster {
		// The obs registry costs the server time, so it records only the
		// closed loop, whose rate does not depend on it.
		ps.single.EnableObservability()
	}
	closed, elapsed := ps.closedLoop(st, chk, 2*phase)
	res, err := tr.finish()
	if err != nil {
		ps.close()
		return nil, err
	}
	traced := &tally{}
	traced.merge(open)
	traced.merge(closed)
	all.merge(traced)

	if cluster {
		body, err := ps.call(http.MethodGet, "/cluster/stats")
		if err == nil {
			err = clusterStats(oc, body)
		}
		if err != nil {
			ps.close()
			return nil, fmt.Errorf("cluster stats: %w", err)
		}
		oc.na("the cluster server has no metrics registry", "xpu.nipc_msgs_per_req")
	} else {
		body, err := ps.call(http.MethodGet, "/metrics")
		if err != nil {
			ps.close()
			return nil, fmt.Errorf("metrics: %w", err)
		}
		if closed.ok > 0 {
			// nIPC traffic is the shim's cross-PU FIFO payloads plus the
			// runtime's executor commands over the interconnect.
			fifo := promSum(string(body), "xpu_nipc_messages_total")
			cmds := promSum(string(body), "molecule_nipc_commands_total")
			oc.values["xpu.nipc_msgs_per_req"] = (fifo + cmds) / float64(closed.ok)
			oc.raw["nipc_fifo_messages"], oc.raw["nipc_commands"] = fifo, cmds
		}
		oc.na("a single machine has no boss", "cluster.stolen", "cluster.queued_peak", "cluster.served_imbalance")
		oc.na("httpd.Server does not expose its simulation kernel", "sim.events", "sim.events_per_s")
	}
	ps.close()
	if cluster {
		events := float64(ps.cs.Boss().Sharded.Scheduled())
		oc.values["sim.events"] = events
		oc.values["sim.events_per_s"] = events / time.Since(tracedStart).Seconds()
	}

	oc.setTrace(res)
	oc.values["gen.late_ms"] = mean(open.late)
	oc.values["gen.sent"] = float64(len(open.late))
	oc.values["net.overhead_ms"] = percentile(traced.overhead, 50)
	oc.values["httpd.handler_ms_p50"] = percentile(traced.handler, 50)
	oc.values["httpd.handler_ms_p99"] = percentile(traced.handler, 99)
	oc.values["httpd.status_4xx"] = float64(traced.status4xx)
	oc.values["httpd.status_5xx"] = float64(traced.s5xx)
	if traced.attempted > 0 {
		wait := lockWait(res.block, "repro/internal/httpd.(*Server).drive", "repro/internal/httpd.(*ClusterServer).drive")
		oc.values["httpd.lock_wait_ms"] = float64(wait) / 1e6 / float64(traced.attempted)
		oc.values["runtime.alloc_kb_per_req"] = res.allocBytes / 1024 / float64(traced.attempted)
	}
	if traced.invocations > 0 {
		oc.values["molecule.cold_frac"] = float64(traced.cold) / float64(traced.invocations)
	}
	oc.values["molecule.virt_p50_ms"] = percentile(traced.virt, 50)
	oc.values["molecule.virt_p99_ms"] = percentile(traced.virt, 99)
	oc.values["molecule.virt_startup_ms"] = mean(traced.startup)
	oc.values["molecule.virt_exec_ms"] = mean(traced.exec)
	refTput := float64(ref.ok) / refElapsed.Seconds()
	tracedTput := float64(closed.ok) / elapsed.Seconds()
	if refTput > 0 {
		oc.values["trace.overhead_frac"] = 1 - tracedTput/refTput
	}
	oc.raw["traced_throughput_rps"] = tracedTput
	oc.raw["reference_throughput_rps"] = refTput
	oc.na("measured on soak only", "sim.parallel_speedup")
	finishHTTP(oc, all)
	return oc, nil
}

// finishHTTP folds a run's tally into the outcome's counts.
func finishHTTP(oc *outcome, all *tally) {
	oc.attempted = all.attempted
	oc.failed = all.attempted - all.ok
	for _, f := range all.failures {
		oc.logFailure(f)
	}
	oc.raw["requests"] = map[string]any{"attempted": all.attempted, "ok": all.ok,
		"status_4xx": all.status4xx, "status_5xx": all.s5xx, "invocations": all.invocations, "cold": all.cold}
}

// clusterStats reads the boss's routing counters from /cluster/stats.
func clusterStats(oc *outcome, body []byte) error {
	var st struct {
		Machines []struct {
			Served int `json:"served"`
		} `json:"machines"`
		QueuedPeak int `json:"queued_peak"`
		Stolen     int `json:"stolen"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	served := make([]int, len(st.Machines))
	for i, m := range st.Machines {
		served[i] = m.Served
	}
	oc.values["cluster.stolen"] = float64(st.Stolen)
	oc.values["cluster.queued_peak"] = float64(st.QueuedPeak)
	oc.values["cluster.served_imbalance"] = imbalance(served)
	oc.raw["served_per_machine"] = served
	return nil
}

// imbalance is the busiest machine's served count over the mean.
func imbalance(served []int) float64 {
	if len(served) == 0 {
		return 0
	}
	most, sum := 0, 0
	for _, n := range served {
		most = max(most, n)
		sum += n
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(served)) / float64(sum)
}

// promSum adds up every series of one metric family in Prometheus text.
func promSum(text, family string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			var v float64
			if _, err := fmt.Sscan(rest[i+1:], &v); err == nil {
				sum += v
			}
		}
	}
	return sum
}
