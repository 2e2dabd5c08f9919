package main

// The soak workload: the simulator on its own, no HTTP. The seeded loadgen
// stream runs through cluster.Boss over 4 machines × 2 DPUs, as in the
// cluster scaling sweep's 4-machine point but over a longer virtual window,
// and each round rebuilds the cluster and replays one whole stream. A run
// draws many streams from its seed, so that how much work one stream
// happens to hold (its cold starts, its bursts) moves the run's figures
// little; repeated rounds of a stream give medians that a passing host
// stall does not move.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
)

const (
	soakStreams  = 16 // arrival streams per run, seeded from the run's seed
	fixedStreams = 4  // streams a traced run always runs: its exact figures
	soakMachines = 4
	soakWorkers  = 2 // kernel workers of a measured round
	soakWindow   = 12 * time.Second
	paceTick     = 100 * time.Millisecond // virtual time between pace samples
	extraSetups  = 100                    // set-up-only builds per run
)

// soakConfig is the soak's shape for one seed: cluster.DefaultSoakConfig
// widened to the eight FunctionBench-style functions at mild skew and
// saturated with capacity 4, so stealing and the central queue both work.
func soakConfig(seed int64) cluster.SoakConfig {
	cfg := cluster.DefaultSoakConfig(soakMachines)
	cfg.HW = hw.Config{DPUs: 2}
	cfg.Capacity = 4
	cfg.Functions = []string{
		"pyaes", "matmul", "image-resize", "chameleon",
		"gzip-compression", "linpack", "image-processing", "helloworld",
	}
	cfg.ZipfS = 1.1
	cfg.RatePerSec = 600
	cfg.Duration = soakWindow
	cfg.Seed = seed
	return cfg
}

// countingInvoker wraps the Boss as the loadgen target and records the
// virtual outcome the Boss hands back for each request. Loadgen calls it
// from processes of the boss domain only, which the kernel runs one at a
// time.
type countingInvoker struct {
	b                 *cluster.Boss
	invocations, cold int64
	startup, exec     []float64 // virtual ms: cold single invokes / all single invokes
}

func (c *countingInvoker) Invoke(p *sim.Proc, fn string, opts molecule.InvokeOptions) (molecule.Result, error) {
	res, err := c.b.Invoke(p, fn, opts)
	if err == nil {
		c.invocations++
		if res.Cold {
			c.cold++
			c.startup = append(c.startup, msOf(res.Startup))
		}
		c.exec = append(c.exec, msOf(res.Exec))
	}
	return res, err
}

func (c *countingInvoker) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	res, err := c.b.InvokeChain(p, names, opts)
	if err == nil {
		c.invocations += int64(len(names))
		c.cold += int64(res.ColdStarts)
	}
	return res, err
}

// soakRound is one complete soak: build, drive, run to quiescence.
type soakRound struct {
	setup, wall time.Duration
	stats       *loadgen.Stats
	inv         *countingInvoker
	served      sim.Time  // virtual time the last request completed
	final       sim.Time  // virtual time the cluster went quiet
	pace        []float64 // host ms per paceTick of virtual time
	events      int64
	perMachine  []int
	stolen      int
	queuedPeak  int
	inflight    int
}

// fingerprint is the round's deterministic witness: the loadgen stats and
// the Boss's routing counters, per-machine service, events and final time.
func (r *soakRound) fingerprint() string {
	return fmt.Sprintf("%s | served=%v stolen=%d qpeak=%d events=%d now=%d",
		r.stats.Fingerprint(), r.perMachine, r.stolen, r.queuedPeak, r.events, r.final)
}

// check returns the round's output-check failures.
func (r *soakRound) check() []string {
	var bad []string
	if r.inflight != 0 {
		bad = append(bad, fmt.Sprintf("soak ended with %d requests inflight", r.inflight))
	}
	if r.stats.Errors != 0 {
		bad = append(bad, fmt.Sprintf("soak had %d failed requests", r.stats.Errors))
	}
	sum := 0
	for _, n := range r.perMachine {
		sum += n
	}
	if sum != r.stats.Requests {
		bad = append(bad, fmt.Sprintf("machines served %d requests of %d", sum, r.stats.Requests))
	}
	return bad
}

// buildBoss is the soak's set-up: the cluster plus every registration.
func buildBoss(cfg cluster.SoakConfig) (*cluster.Boss, error) {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: cfg.Machines, HW: cfg.HW, Opts: molecule.DefaultOptions(), Capacity: cfg.Capacity,
	})
	if err != nil {
		return nil, err
	}
	profiles := []molecule.Profile{molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)}
	fns := append([]string(nil), cfg.Functions...)
	for _, ch := range cfg.Chains {
		fns = append(fns, ch...)
	}
	for _, fn := range fns {
		if err := b.Register(fn, profiles...); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func runSoakRound(cfg cluster.SoakConfig, workers int) (*soakRound, error) {
	start := time.Now()
	b, err := buildBoss(cfg)
	if err != nil {
		return nil, err
	}
	r := &soakRound{setup: time.Since(start), inv: &countingInvoker{b: b}}
	var runErr error
	done := false
	b.Env.Spawn("soak-client", func(p *sim.Proc) {
		r.stats, runErr = loadgen.Drive(p, r.inv, loadgen.Config{
			Seed: cfg.Seed, Functions: cfg.Functions, ZipfS: cfg.ZipfS,
			RatePerSec: cfg.RatePerSec, Duration: cfg.Duration,
			Chains: cfg.Chains, ChainFraction: cfg.ChainFraction,
		})
		r.served = p.Now()
		done = true
	})
	// The pace probe wakes every paceTick of virtual time and notes the
	// host clock: how long the simulator takes to advance the cluster by
	// one tick is the soak's wall latency.
	t0 := time.Now()
	b.Env.Spawn("soak-pace", func(p *sim.Proc) {
		last := t0
		for !done {
			p.Sleep(paceTick)
			now := time.Now()
			r.pace = append(r.pace, msOf(now.Sub(last)))
			last = now
		}
	})
	r.final = b.Run(workers)
	r.wall = time.Since(t0)
	if runErr != nil {
		return nil, runErr
	}
	if r.stats == nil {
		return nil, errors.New("soak client did not finish")
	}
	r.events = b.Sharded.Scheduled()
	r.stolen = b.Stolen()
	r.queuedPeak = b.QueuedPeak()
	r.inflight = b.Inflight()
	for _, n := range b.Nodes() {
		r.perMachine = append(r.perMachine, n.Served())
	}
	// The run keeps each stream's first round; dropping the Boss lets the
	// cluster go, so peak memory does not grow with the number of streams.
	r.inv.b = nil
	return r, nil
}

// soakRun runs rounds over the run's streams and checks that every round
// of a stream agrees with the stream's first.
type soakRun struct {
	oc     *outcome
	cfgs   []cluster.SoakConfig
	firsts []*soakRound
	fps    []string
	rounds int

	setups []float64
	// Measured rounds by stream: wall seconds, and each round's pace samples.
	walls [][]float64
	paces [][][]float64
}

func newSoakRun(oc *outcome, seed int64) *soakRun {
	s := &soakRun{
		oc: oc, firsts: make([]*soakRound, soakStreams), fps: make([]string, soakStreams),
		walls: make([][]float64, soakStreams), paces: make([][][]float64, soakStreams),
	}
	for k := 0; k < soakStreams; k++ {
		s.cfgs = append(s.cfgs, soakConfig(seed*soakStreams+int64(k)))
	}
	return s
}

// round runs stream k once on the given kernel worker count.
func (s *soakRun) round(k, workers int, measured bool) (*soakRound, error) {
	r, err := runSoakRound(s.cfgs[k], workers)
	if err != nil {
		return nil, err
	}
	s.rounds++
	s.oc.attempted += int64(r.stats.Requests)
	bad := r.check()
	if fp := r.fingerprint(); s.firsts[k] == nil {
		s.firsts[k], s.fps[k] = r, fp
	} else if fp != s.fps[k] {
		bad = append(bad, fmt.Sprintf("round %d of stream %d differs from its first:\n  now  %s\n  was  %s", s.rounds, k, fp, s.fps[k]))
	}
	// A failed check fails the round's requests: their numbers came from
	// wrong behaviour.
	if len(bad) > 0 {
		s.oc.failed += int64(r.stats.Requests)
		for _, b := range bad {
			s.oc.logFailure(b)
		}
	}
	s.setups = append(s.setups, r.setup.Seconds())
	if measured {
		s.walls[k] = append(s.walls[k], r.wall.Seconds())
		s.paces[k] = append(s.paces[k], r.pace)
	}
	return r, nil
}

// throughput is the measured streams' requests over their summed median
// round wall time: requests per host second over one pass through every
// measured stream, each taking its typical time.
func (s *soakRun) throughput() float64 {
	var reqs, secs float64
	for k, w := range s.walls {
		if len(w) > 0 {
			reqs += float64(s.firsts[k].stats.Requests)
			secs += median(w)
		}
	}
	return reqs / secs
}

// measuredSeconds is the wall time of every measured round.
func (s *soakRun) measuredSeconds() float64 {
	sum := 0.0
	for _, w := range s.walls {
		for _, v := range w {
			sum += v
		}
	}
	return sum
}

// paceSlices gives each slice of virtual time of every measured stream its
// median host time over the stream's rounds. Rounds of a stream replay the
// same events, so slice i of each covers the same work; the median keeps
// the slice's own cost and drops a stall that met only one round of it.
func (s *soakRun) paceSlices() []float64 {
	var out []float64
	for _, rounds := range s.paces {
		if len(rounds) == 0 {
			continue
		}
		n := len(rounds[0])
		for _, p := range rounds {
			n = min(n, len(p))
		}
		col := make([]float64, len(rounds))
		for i := 0; i < n; i++ {
			for j, p := range rounds {
				col[j] = p[i]
			}
			out = append(out, median(col))
		}
	}
	return out
}

// fingerprints are the deterministic witnesses of the streams that ran.
func (s *soakRun) fingerprints() map[string]string {
	out := map[string]string{}
	for k, fp := range s.fps {
		if fp != "" {
			out[fmt.Sprintf("stream%d", k)] = fp
		}
	}
	return out
}

// soakTotals folds the first round of each of the first n streams: the
// run's exact, seed-determined outcome.
type soakTotals struct {
	requests   int
	served     time.Duration // summed virtual span up to each stream's last completion
	latency    metrics.Recorder
	events     int64
	stolen     int
	queuedPeak int
	perMachine []int
}

func (s *soakRun) totals(n int) soakTotals {
	var t soakTotals
	t.perMachine = make([]int, soakMachines)
	for _, r := range s.firsts[:n] {
		t.requests += r.stats.Requests
		t.served += time.Duration(r.served)
		t.latency.Merge(&r.stats.Latency)
		t.events += r.events
		t.stolen += r.stolen
		t.queuedPeak = max(t.queuedPeak, r.queuedPeak)
		for i, n := range r.perMachine {
			t.perMachine[i] += n
		}
	}
	return t
}

// runSoak runs the soak workload. Rounds cycle through the run's streams.
// An untraced run repeats 2-worker rounds for the whole budget, running
// every stream at least once. A traced run alternates 1- and 2-worker
// rounds of one stream at a time for half of it (sim.parallel_speedup),
// running at least the first fixedStreams streams, then profiles 2-worker
// rounds for the other half.
func runSoak(cfg runConfig) (*outcome, error) {
	oc := newOutcome()
	run := newSoakRun(oc, cfg.seed)
	deadline := time.Now().Add(cfg.duration)
	// Set-up takes well under a millisecond, so a run builds extra
	// clusters to give setup_s a median over many samples.
	for i := 0; i < extraSetups; i++ {
		start := time.Now()
		if _, err := buildBoss(run.cfgs[0]); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}

	if !cfg.traced {
		for k := 0; k < soakStreams || time.Now().Before(deadline); k++ {
			if _, err := run.round(k%soakStreams, soakWorkers, true); err != nil {
				return nil, err
			}
			if k == soakStreams-1 {
				// Every stream has run once: a fixed amount of work,
				// unlike the rounds that fill the rest of the budget.
				oc.values["peak_rss_mb"] = peakRSSMB()
			}
		}
		t := run.totals(soakStreams)
		slices := run.paceSlices()
		oc.values["setup_s"] = median(run.setups)
		oc.values["throughput_rps"] = run.throughput()
		oc.values["p50_ms"] = percentile(slices, 50)
		oc.values["p99_ms"] = percentile(slices, 99)
		oc.values["virt_mean_ms"] = msOf(t.latency.Avg())
		oc.values["virt_rps"] = float64(t.requests) / t.served.Seconds()
		oc.raw["virt_p50_ms"] = msOf(t.latency.Percentile(50))
		oc.raw["virt_p99_ms"] = msOf(t.latency.Percentile(99))
		oc.raw["setup_s"] = run.setups
		oc.raw["round_wall_s"] = run.walls
		oc.raw["pace_slices"] = len(slices)
		oc.fingerprints = run.fingerprints()
		return oc, nil
	}

	// Traced: partitioning versus parallelism first, untraced.
	var w1, w2, tput2 []float64
	half := time.Now().Add(cfg.duration / 2)
	for k := 0; k < fixedStreams || time.Now().Before(half); k++ {
		for _, workers := range []int{1, soakWorkers} {
			r, err := run.round(k%soakStreams, workers, false)
			if err != nil {
				return nil, err
			}
			if workers == 1 {
				w1 = append(w1, r.wall.Seconds())
			} else {
				w2 = append(w2, r.wall.Seconds())
				tput2 = append(tput2, float64(r.stats.Requests)/r.wall.Seconds())
			}
		}
	}
	tr, err := startTrace(false, cfg.profDir)
	if err != nil {
		return nil, err
	}
	var tput []float64
	var events, requests int64
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		r, err := run.round(k%soakStreams, soakWorkers, true)
		if err != nil {
			tr.finish()
			return nil, err
		}
		events += r.events
		requests += int64(r.stats.Requests)
		tput = append(tput, float64(r.stats.Requests)/r.wall.Seconds())
	}
	res, err := tr.finish()
	if err != nil {
		return nil, err
	}
	// The exact figures come from the first rounds of the streams every
	// traced run covers, so they do not depend on how many rounds fit.
	t := run.totals(fixedStreams)
	var inv countingInvoker
	for _, r := range run.firsts[:fixedStreams] {
		inv.invocations += r.inv.invocations
		inv.cold += r.inv.cold
		inv.startup = append(inv.startup, r.inv.startup...)
		inv.exec = append(inv.exec, r.inv.exec...)
	}
	oc.setTrace(res)
	oc.values["sim.events"] = float64(t.events)
	oc.values["sim.events_per_s"] = float64(events) / run.measuredSeconds()
	oc.values["sim.parallel_speedup"] = median(w1) / median(w2)
	oc.values["cluster.stolen"] = float64(t.stolen)
	oc.values["cluster.queued_peak"] = float64(t.queuedPeak)
	oc.values["cluster.served_imbalance"] = imbalance(t.perMachine)
	oc.values["molecule.virt_p50_ms"] = msOf(t.latency.Percentile(50))
	oc.values["molecule.virt_p99_ms"] = msOf(t.latency.Percentile(99))
	if inv.invocations > 0 {
		oc.values["molecule.cold_frac"] = float64(inv.cold) / float64(inv.invocations)
	}
	oc.values["molecule.virt_startup_ms"] = mean(inv.startup)
	oc.values["molecule.virt_exec_ms"] = mean(inv.exec)
	oc.values["runtime.alloc_kb_per_req"] = res.allocBytes / 1024 / float64(requests)
	oc.values["trace.overhead_frac"] = 1 - median(tput)/median(tput2)
	oc.raw["wall_s_1_worker"] = w1
	oc.raw["wall_s_2_workers"] = w2
	oc.raw["traced_wall_s"] = run.walls
	oc.raw["served_per_machine"] = t.perMachine
	oc.na("the soak has no HTTP layer", "gen.late_ms", "gen.sent", "net.overhead_ms",
		"httpd.handler_ms_p50", "httpd.handler_ms_p99", "httpd.status_4xx", "httpd.status_5xx", "httpd.lock_wait_ms")
	oc.na("the cluster has no metrics registry", "xpu.nipc_msgs_per_req")
	oc.fingerprints = run.fingerprints()
	return oc, nil
}
