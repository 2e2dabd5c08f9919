package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// newTestBoss builds a small cluster and registers the given functions on
// the default CPU profile.
func newTestBoss(t *testing.T, machines int, cfg hw.Config, capacity int, fns ...string) *Boss {
	t.Helper()
	b, err := NewBoss(BossConfig{Machines: machines, HW: cfg, Opts: molecule.DefaultOptions(), Capacity: capacity})
	if err != nil {
		t.Fatalf("NewBoss: %v", err)
	}
	for _, fn := range fns {
		if err := b.Register(fn); err != nil {
			t.Fatalf("Register(%q): %v", fn, err)
		}
	}
	return b
}

// invokeOnce runs one request from a fresh client to quiescence.
func invokeOnce(b *Boss, fn string) (res molecule.Result, worker int, err error) {
	b.Env.Spawn("client", func(p *sim.Proc) {
		res, worker, err = b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	return res, worker, err
}

// chainOnce runs one chain from a fresh client to quiescence.
func chainOnce(b *Boss, chain []string) (res molecule.ChainResult, err error) {
	b.Env.Spawn("client", func(p *sim.Proc) {
		res, err = b.InvokeChain(p, chain, molecule.ChainOptions{})
	})
	b.Run(1)
	return res, err
}

// burst submits n concurrent requests for fn (or for chain, when non-nil)
// from separate clients and runs the cluster to quiescence.
func burst(b *Boss, n int, fn string, chain []string) []error {
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			if chain != nil {
				_, errs[i] = b.InvokeChain(p, chain, molecule.ChainOptions{})
			} else {
				_, errs[i] = b.Invoke(p, fn, molecule.InvokeOptions{PU: -1})
			}
		})
	}
	b.Run(1)
	return errs
}

// splitEdge reports whether any chain edge paid an interconnect hop: the
// hop is ms-scale, every intra-machine edge µs-scale.
func splitEdge(b *Boss, res molecule.ChainResult) bool {
	for _, e := range res.EdgeLatency {
		if e >= b.IC.Lookahead() {
			return true
		}
	}
	return false
}

func TestBossInvokeCompletes(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	res, worker, err := invokeOnce(b, "pyaes")
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Total <= 0 {
		t.Fatalf("want positive total latency, got %v", res.Total)
	}
	if worker < 0 || worker >= 2 {
		t.Fatalf("served by machine %d, want 0 or 1", worker)
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after run = %d, want 0", got)
	}
}

// TestBossWarmAffinity: repeat invocations of the same function must land
// on the same machine (rendezvous home), so the second request reuses the
// first's warm instance instead of cold-starting a second machine.
func TestBossWarmAffinity(t *testing.T) {
	b := newTestBoss(t, 4, hw.Config{}, 0, "pyaes")
	workers := make([]int, 0, 6)
	colds := 0
	b.Env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			res, w, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			if res.Cold {
				colds++
			}
			workers = append(workers, w)
		}
	})
	b.Run(1)
	for _, w := range workers[1:] {
		if w != workers[0] {
			t.Fatalf("affinity broken: requests served by machines %v", workers)
		}
	}
	if colds != 1 {
		t.Fatalf("cold starts = %d, want exactly 1 (warm reuse on the home machine)", colds)
	}
}

// TestBossWorkStealing: saturate the home machine and verify overflow is
// stolen by another machine rather than queued or failed.
func TestBossWorkStealing(t *testing.T) {
	const machines, cap = 3, 2
	b := newTestBoss(t, machines, hw.Config{}, cap, "pyaes")
	const n = machines * cap // enough to need every machine
	for i, err := range burst(b, n, "pyaes", nil) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if b.Stolen() == 0 {
		t.Fatalf("no requests stolen despite %d concurrent requests on home capacity %d", n, cap)
	}
	busy := 0
	for _, node := range b.Nodes() {
		if node.Served() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("work stealing did not spread load: served=%v", servedOf(b))
	}
}

// TestBossCentralQueue: more concurrent requests than cluster-wide
// capacity must queue at the boss and drain, with zero failures.
func TestBossCentralQueue(t *testing.T) {
	const machines, cap = 2, 1
	b := newTestBoss(t, machines, hw.Config{}, cap, "pyaes")
	const n = 3 * machines * cap // 3x cluster capacity
	for i, err := range burst(b, n, "pyaes", nil) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if b.QueuedPeak() == 0 {
		t.Fatalf("queue never used at 3x overload (peak=0)")
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after run = %d, want 0", got)
	}
}

// TestBossChainLocality: a chain whose functions all fit one machine must
// run on one machine — zero interconnect hops inside the chain.
func TestBossChainLocality(t *testing.T) {
	b := newTestBoss(t, 3, hw.Config{DPUs: 1}, 0, "mr-splitter", "mr-mapper", "mr-reducer")
	res, err := chainOnce(b, []string{"mr-splitter", "mr-mapper", "mr-reducer"})
	if err != nil {
		t.Fatalf("InvokeChain: %v", err)
	}
	if splitEdge(b, res) {
		t.Fatalf("chain was split: edges %v include an interconnect hop", res.EdgeLatency)
	}
	served := 0
	for _, n := range b.Nodes() {
		if n.Served() > 0 {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("local chain touched %d machines, want 1 (served=%v)", served, servedOf(b))
	}
}

// TestBossFailover: kill a machine's PUs mid-run; its traffic must fail
// over to the surviving machine via the boss, and after Revive+Readmit the
// machine serves again.
func TestBossFailover(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	// Find the rendezvous home so we kill the machine actually serving.
	var home *Node
	var score uint64
	for _, n := range b.Nodes() {
		if s := rendezvous("pyaes", n.Domain); home == nil || s > score {
			home, score = n, s
		}
	}
	other := b.Nodes()[0]
	if other == home {
		other = b.Nodes()[1]
	}

	// The fault plan lives on the home machine's own domain: the kill fires
	// there at a scheduled virtual time, never as a cross-domain mutation.
	pl := faults.NewPlan(home.Env, 1)
	home.RT.AttachFaults(pl)
	killAt := sim.Time(2 * time.Second)
	home.Env.At(killAt, func() {
		for _, pu := range home.HW.PUs() {
			pl.Kill(pu.ID)
		}
	})

	var warmErr, postErr error
	var warmWorker, postWorker int
	b.Env.Spawn("client", func(p *sim.Proc) {
		if _, warmWorker, warmErr = b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1}); warmErr != nil {
			return
		}
		p.Sleep(time.Duration(killAt) - time.Duration(p.Now()) + time.Second)
		_, postWorker, postErr = b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if warmErr != nil {
		t.Fatalf("warm-up invoke: %v", warmErr)
	}
	if warmWorker != home.ID() {
		t.Fatalf("warm-up served by machine %d, want rendezvous home %d", warmWorker, home.ID())
	}
	if postErr != nil {
		t.Fatalf("post-kill invoke did not fail over: %v", postErr)
	}
	if postWorker != other.ID() {
		t.Fatalf("post-kill request served by machine %d, want survivor %d", postWorker, other.ID())
	}
	if !home.Down() {
		t.Fatalf("boss did not mark the killed machine down")
	}

	// Revive at quiescence (the group is idle between runs), readmit, and
	// verify the home serves again.
	for _, pu := range home.HW.PUs() {
		pl.Revive(pu.ID)
	}
	if err := b.Readmit(home.ID()); err != nil {
		t.Fatalf("Readmit: %v", err)
	}
	_, revivedWorker, revivedErr := invokeOnce(b, "pyaes")
	if revivedErr != nil {
		t.Fatalf("post-revive invoke: %v", revivedErr)
	}
	if revivedWorker != home.ID() {
		t.Fatalf("post-revive request served by machine %d, want readmitted home %d", revivedWorker, home.ID())
	}
}

// TestBossDrainUnderLoad: draining a machine mid-burst must not strand its
// inflight requests, and new requests must avoid it.
func TestBossDrainUnderLoad(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	b.Env.At(sim.Time(50*time.Millisecond), func() {
		if err := b.Drain(0); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	for i, err := range burst(b, 8, "pyaes", nil) {
		if err != nil {
			t.Fatalf("request %d failed across drain: %v", i, err)
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after drain run = %d, want 0", got)
	}
}

// TestBossDeterministicAcrossWorkers is the tentpole's core invariant: the
// cluster soak fingerprint and the loadgen stats must be byte-identical at
// every OS worker count.
func TestBossDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultSoakConfig(3)
	cfg.RatePerSec = 120
	cfg.Duration = 1 * time.Second
	cfg.Capacity = 8

	counts := []int{0, 1, 2, 4, runtime.NumCPU()}
	var want string
	for _, w := range counts {
		res, err := Soak(cfg, w)
		if err != nil {
			t.Fatalf("Soak(workers=%d): %v", w, err)
		}
		fp := res.Fingerprint()
		if want == "" {
			want = fp
			if res.Stats.Requests == 0 {
				t.Fatalf("soak produced no requests")
			}
			if res.Stats.Errors != 0 {
				t.Fatalf("soak produced %d errors: %s", res.Stats.Errors, fp)
			}
			continue
		}
		if fp != want {
			t.Fatalf("workers=%d fingerprint diverged:\n  got  %s\n  want %s", w, fp, want)
		}
	}
}

// TestBossSaturatedIdleFailsQueue: a cluster with zero capacity must fail
// queued requests deterministically instead of deadlocking.
func TestBossSaturatedIdleFailsQueue(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes")
	b.nodes[0].capacity = 0 // hasRoom() is always false
	_, _, err := invokeOnce(b, "pyaes")
	if !errors.Is(err, errClusterSaturated) {
		t.Fatalf("want errClusterSaturated, got %v", err)
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestBossUnregisteredFunction: a request for an unknown function errors
// without charging any inflight window.
func TestBossUnregisteredFunction(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0)
	if _, _, err := invokeOnce(b, "nope"); err == nil {
		t.Fatalf("want error for unregistered function")
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0)
	if err := b.Register("nope"); err == nil {
		t.Error("unknown function registered")
	}
	if err := b.Register("matmul"); err != nil {
		t.Error(err)
	}
}

// TestScheduleByPUKind: on an FPGA fleet, an FPGA-only registration is
// served on an FPGA PU.
func TestScheduleByPUKind(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{FPGAs: 1}, 0)
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	res, worker, err := invokeOnce(b, "mscale")
	if err != nil {
		t.Fatal(err)
	}
	if worker < 0 || res.Kind != hw.FPGA {
		t.Errorf("FPGA function served by machine %d on %v, want an FPGA PU", worker, res.Kind)
	}
	// No general-purpose PU runs an FPGA-only chain: that is the client's
	// error, returned at once rather than requeued as a capacity miss.
	if _, err := chainOnce(b, []string{"mscale", "mscale"}); err == nil || errors.Is(err, molecule.ErrNoCapacity) {
		t.Errorf("FPGA-only chain: err = %v, want a non-capacity error", err)
	}
	if b.QueuedPeak() != 0 {
		t.Errorf("FPGA-only chain queued (peak %d), want an immediate error", b.QueuedPeak())
	}
}

// TestScheduleLeastLoaded: with the affinity home saturated, a request is
// stolen by the least-loaded machine that still has room.
func TestScheduleLeastLoaded(t *testing.T) {
	b := newTestBoss(t, 3, hw.Config{}, 4, "matmul")
	home, _, err := b.routeOne("matmul")
	if err != nil {
		t.Fatal(err)
	}
	home.inflight = home.capacity
	loads := []int{3, 1}
	var light *Node // the later machine, which gets the lighter load
	for _, n := range b.nodes {
		if n != home {
			n.inflight, loads, light = loads[0], loads[1:], n
		}
	}
	n, stolen, err := b.routeOne("matmul")
	if err != nil || !stolen || n != light {
		t.Errorf("routeOne = machine %v stolen=%v err=%v, want least-loaded machine %d stolen", n.ID(), stolen, err, light.ID())
	}
}

// TestNoEligibleWorker: a function no machine can run fails as the
// client's error, not as molecule.ErrUnavailable (which front ends answer
// with 503), for single requests and chains alike.
func TestNoEligibleWorker(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes") // CPU only
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	_, _, err := invokeOnce(b, "mscale")
	if err == nil || errors.Is(err, molecule.ErrUnavailable) {
		t.Errorf("FPGA request on a CPU-only cluster: err = %v, want a non-503 error", err)
	}
	_, err = chainOnce(b, []string{"pyaes", "mscale"})
	if err == nil || errors.Is(err, molecule.ErrUnavailable) {
		t.Errorf("mixed chain on a CPU-only cluster: err = %v, want a non-503 error", err)
	}
}

func TestLazyDeploymentPerWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "matmul")
	for _, n := range b.Nodes() {
		if n.deployed["matmul"] {
			t.Fatalf("machine %d deployed before first use", n.ID())
		}
	}
	_, worker, err := invokeOnce(b, "matmul")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range b.Nodes() {
		if got, want := n.deployed["matmul"], n.ID() == worker; got != want {
			t.Errorf("machine %d deployed=%v after one invoke served by machine %d", n.ID(), got, worker)
		}
	}
	// The second invoke reuses the deployment and its warm instance.
	res, again, err := invokeOnce(b, "matmul")
	if err != nil || res.Cold || again != worker {
		t.Errorf("second invoke: machine %d cold=%v err=%v, want warm on machine %d", again, res.Cold, err, worker)
	}
}

// TestChainSchedulesToOneWorker: a chain and its warm re-run land on one
// machine, so the re-run has no cold starts.
func TestChainSchedulesToOneWorker(t *testing.T) {
	chain := workloads.MapReduceChain()
	b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0, chain...)
	for _, wantCold := range []int{len(chain), 0} {
		res, err := chainOnce(b, chain)
		if err != nil {
			t.Fatal(err)
		}
		if res.ColdStarts != wantCold {
			t.Errorf("chain cold starts = %d, want %d", res.ColdStarts, wantCold)
		}
	}
	if served := servedOf(b); served[0]+served[1] != 2 || served[0]*served[1] != 0 {
		t.Errorf("chains served by machines %v, want both on one machine", served)
	}
}

// TestMixedChainNeedsHeterogeneousWorker: a chain of a CPU-only function
// feeding a DPU-only function runs on exactly one machine, crossing PUs
// inside it rather than the interconnect.
func TestMixedChainNeedsHeterogeneousWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0)
	if err := b.Register("pyaes", molecule.DefaultProfile(hw.CPU)); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("matmul", molecule.DefaultProfile(hw.DPU)); err != nil {
		t.Fatal(err)
	}
	res, err := chainOnce(b, []string{"pyaes", "matmul"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeLatency) != 1 || splitEdge(b, res) {
		t.Errorf("mixed chain edges %v, want one intra-machine edge", res.EdgeLatency)
	}
	if served := servedOf(b); served[0]+served[1] != 1 {
		t.Errorf("mixed chain served by machines %v, want exactly one", served)
	}
}

func TestDrainExcludesWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "matmul")
	if err := b.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, worker, err := invokeOnce(b, "matmul"); err != nil || worker != 1 {
			t.Errorf("request on machine %d (err %v), want 1 while 0 drains", worker, err)
		}
	}
	if err := b.Drain(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := invokeOnce(b, "matmul"); err == nil {
		t.Error("request routed onto a fully drained cluster")
	}
	if err := b.Undrain(0); err != nil {
		t.Fatal(err)
	}
	if _, worker, err := invokeOnce(b, "matmul"); err != nil || worker != 0 {
		t.Errorf("undrained machine not used: machine %d err %v", worker, err)
	}
	if err := b.Drain(9); err == nil {
		t.Error("drain of unknown machine accepted")
	}
	if err := b.Undrain(-1); err == nil {
		t.Error("undrain of unknown machine accepted")
	}
}

// TestBurstAboveCapacityCompletes: a burst of twice the cluster's capacity
// completes with zero errors, and every machine's admission window drains
// back to zero.
func TestBurstAboveCapacityCompletes(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	for i, err := range burst(b, 8, "pyaes", nil) {
		if err != nil {
			t.Errorf("burst request %d: %v", i, err)
		}
	}
	for _, n := range b.Nodes() {
		if n.Inflight() != 0 || n.Served() == 0 {
			t.Errorf("machine %d: inflight %d served %d, want 0 inflight and a share served", n.ID(), n.Inflight(), n.Served())
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Errorf("inflight after burst = %d, want 0", got)
	}
}

// TestChainBurstAboveCapacityCompletes covers the same saturation path for
// chains.
func TestChainBurstAboveCapacityCompletes(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 2, "pyaes")
	for i, err := range burst(b, 4, "", []string{"pyaes", "pyaes"}) {
		if err != nil {
			t.Errorf("chain burst request %d: %v", i, err)
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Errorf("inflight after chain burst = %d, want 0", got)
	}
}

// TestInflightZeroOnErrorPaths walks every request-rejection path and
// asserts the boss's and the machine's inflight counters are back at zero
// each time.
func TestInflightZeroOnErrorPaths(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes")
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	node := b.Nodes()[0]
	check := func(when string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: request succeeded, want an error", when)
		}
		if b.Inflight() != 0 || node.Inflight() != 0 {
			t.Errorf("%s: inflight boss=%d machine=%d, want 0", when, b.Inflight(), node.Inflight())
		}
	}
	_, _, err := invokeOnce(b, "unregistered")
	check("unregistered function", err)
	_, _, err = invokeOnce(b, "mscale")
	check("no eligible machine", err)
	_, err = chainOnce(b, []string{"pyaes", "mscale"})
	check("ineligible chain", err)
	b.Drain(0)
	_, _, err = invokeOnce(b, "pyaes")
	check("fully drained", err)
	b.Undrain(0)
	capacity := node.capacity
	node.capacity = 0
	_, _, err = invokeOnce(b, "pyaes")
	check("saturated idle", err)
	node.capacity = capacity
	if _, _, err := invokeOnce(b, "pyaes"); err != nil || b.Inflight() != 0 {
		t.Errorf("healthy invoke after error paths: err %v inflight %d", err, b.Inflight())
	}
}

// TestGatewayLoadBalancesConcurrentTraffic drives concurrent requests
// through the boss, the cluster's one gateway, at two identical machines
// whose admission windows the burst overflows, and checks both serve a
// share and every request is accounted to exactly one machine.
func TestGatewayLoadBalancesConcurrentTraffic(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	served := make(map[int]int)
	for i := 0; i < 12; i++ {
		b.Env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			_, worker, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
			if err != nil {
				t.Error(err)
				return
			}
			served[worker]++
		})
	}
	b.Run(1)
	if served[0] == 0 || served[1] == 0 {
		t.Errorf("load not balanced: %v", served)
	}
	if served[0]+served[1] != 12 {
		t.Errorf("served %v, want 12 total", served)
	}
	if got := servedOf(b); got[0] != served[0] || got[1] != served[1] {
		t.Errorf("machine served counters %v disagree with replies %v", got, served)
	}
}

// TestSaturatedIdleClusterStillErrors pins the deadlock guard: when every
// eligible machine's capacity is zero and nothing is inflight, a request
// must fail fast (nothing will ever complete to wake it) with an error
// front ends map to 503, and the inflight counters must be back at zero.
func TestSaturatedIdleClusterStillErrors(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	for _, n := range b.Nodes() {
		n.capacity = 0
	}
	_, worker, err := invokeOnce(b, "pyaes")
	if err == nil {
		t.Fatal("invoke on a zero-capacity cluster succeeded")
	}
	if !errors.Is(err, molecule.ErrUnavailable) {
		t.Errorf("error %v does not wrap molecule.ErrUnavailable", err)
	}
	if worker != -1 {
		t.Errorf("failed request reports machine %d, want -1", worker)
	}
	for _, n := range b.Nodes() {
		if n.Inflight() != 0 {
			t.Errorf("machine %d inflight = %d on error path, want 0", n.ID(), n.Inflight())
		}
	}
	if b.Inflight() != 0 || b.Queued() != 0 {
		t.Errorf("boss inflight=%d queued=%d on error path, want 0", b.Inflight(), b.Queued())
	}
}

// TestDrainMidBurstStrandsNothing drains a machine while a burst above
// cluster capacity is in flight: every request must still complete (the
// drained machine finishes what it accepted; queued work goes to the
// survivor) and every inflight counter returns to zero.
func TestDrainMidBurstStrandsNothing(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	const n = 10
	b.Env.At(sim.Time(5*time.Millisecond), func() { // inside the burst's service window
		if b.Inflight() == 0 {
			t.Error("burst already finished when the drain fired")
		}
		if err := b.Drain(0); err != nil {
			t.Error(err)
		}
	})
	errs := burst(b, n, "pyaes", nil)
	done := 0
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d failed during drain: %v", i, err)
			continue
		}
		done++
	}
	if done != n {
		t.Errorf("%d/%d requests completed across drain", done, n)
	}
	if !b.Nodes()[0].Draining() {
		t.Error("machine 0 not draining after the operator drained it")
	}
	for _, node := range b.Nodes() {
		if node.Inflight() != 0 {
			t.Errorf("machine %d inflight = %d after burst, want 0", node.ID(), node.Inflight())
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Errorf("boss inflight after burst = %d, want 0", got)
	}
}

// TestScheduleZeroAlloc pins single-request routing at zero allocations on
// a 4-machine boss: eligibility is a precomputed mask AND and the affinity
// hash writes into a stack hasher.
func TestScheduleZeroAlloc(t *testing.T) {
	b := newTestBoss(t, 4, hw.Config{DPUs: 2, FPGAs: 1}, 0, "pyaes")
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := b.routeOne("pyaes"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("routeOne allocates %v/op, want 0", n)
	}
}

func servedOf(b *Boss) []int {
	out := make([]int, len(b.Nodes()))
	for i, n := range b.Nodes() {
		out[i] = n.Served()
	}
	return out
}
