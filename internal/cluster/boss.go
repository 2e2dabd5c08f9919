// Package cluster implements the platform layer above single machines: the
// global manager of the paper's Fig 6 as a boss/worker control plane. Users
// register functions with their profiles once; the boss routes each request
// to a machine with at least one of the required PU kinds (§4.1), deploying
// the function there on first use, and places a whole function chain on one
// machine, for communication locality (§4.1).
//
// A Boss owns N simulated machines, each a full heterogeneous computer —
// its own hw.Machine, XPU shim, and Molecule runtime — living on its own
// sim.Sharded event domain, connected by a hw.Interconnect. Domain 0 is
// the boss itself: clients, routing state, and the admission queue live
// there, and every boss↔machine interaction is an interconnect message
// that pays the cross-machine link's latency. Because the interconnect is
// the only cross-domain edge, the whole cluster runs under the
// conservative windowed driver at any OS worker count with byte-identical
// results.
//
// Every machine is built from one hw.Config, so the fleet has one set of
// PU kinds and a function the fleet can run can run on any machine.
//
// Routing:
//   - warm-instance affinity: a rendezvous hash over the live eligible
//     machines gives every function a stable home, so repeat invocations
//     land where their warm instances are;
//   - work stealing: when the home machine is saturated, the request is
//     stolen by the least-loaded eligible machine with headroom instead of
//     erroring;
//   - central queue: when every eligible machine is saturated, requests
//     queue FIFO at the boss and drain as completions free slots;
//   - chains: placed whole on the affinity home of their first function
//     (the interconnect's ms-scale base latency dwarfs the µs-scale
//     intra-machine links — the hw model's asymmetry). The machine places
//     the functions on its PUs, crossing PUs over nIPC when no one PU runs
//     the whole chain (§4.3).
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Message sizes for boss↔machine interconnect traffic: a request envelope
// and a reply envelope.
const (
	requestBytes = 1 << 10
	replyBytes   = 1 << 9
)

// kindMask is a bitset of hw.PUKind values — precomputed once for the fleet
// and once per registration so routing tests eligibility with a single AND
// instead of building a map per request.
type kindMask uint32

func maskOf(k hw.PUKind) kindMask { return 1 << uint(k) }

func (m kindMask) has(k hw.PUKind) bool { return m&maskOf(k) != 0 }

// machineKinds returns the bitset of PU kinds present on a machine.
func machineKinds(m *hw.Machine) kindMask {
	var mask kindMask
	for _, pu := range m.PUs() {
		mask |= maskOf(pu.Kind)
	}
	return mask
}

// registration is a function registered with the boss.
type registration struct {
	profiles []molecule.Profile
	mask     kindMask // union of the profiles' PU kinds
}

// errClusterSaturated reports requests that found no capacity and nothing
// inflight to wait for: every eligible machine's admission window is
// closed. It wraps molecule.ErrUnavailable so front ends (httpd) can map it
// to 503 without reaching into this package.
var errClusterSaturated = fmt.Errorf("cluster: saturated with nothing inflight: %w", molecule.ErrUnavailable)

// ingress charges the client↔boss network hop one way.
func ingress(p *sim.Proc) { p.Sleep(params.NetworkBaseLatency) }

// Node is one worker machine of a Boss cluster: a shard domain owning its
// own hardware and Molecule runtime. Boss-side fields (inflight, draining,
// down, counters) are only touched from domain 0; machine-side fields
// (deployed, deploying) only from the node's own domain.
type Node struct {
	Domain int // shard domain index (boss is domain 0)
	Env    *sim.Env
	HW     *hw.Machine
	RT     *molecule.Runtime

	capacity int // boot-time snapshot of RT.Capacity()

	// Boss-side scheduling state.
	inflight int
	draining bool
	down     bool
	served   int // requests completed here
	stolen   int // requests that landed here via work stealing

	// Machine-side deployment state.
	regs      map[string][]molecule.Profile // kind-filtered, written before Run
	deployed  map[string]bool
	deploying map[string]*sim.WaitGroup

	// Machine-side admission state (an epoch queue local to this
	// machine): a request that hits ErrNoCapacity parks here and
	// retries when a local completion frees an instance slot, instead of
	// bouncing back to the boss. FIFO-fair against the warm pool and free
	// of the cross-machine round trip.
	active  int                   // local execs inside an RT call
	epoch   int                   // bumped on every successful completion
	waiters []*sim.Chan[struct{}] // parked local requests
}

// ID returns the node's worker index (0-based; domain minus one).
func (n *Node) ID() int { return n.Domain - 1 }

// Inflight reports requests dispatched to the node but not yet completed.
func (n *Node) Inflight() int { return n.inflight }

// Served reports requests completed by the node.
func (n *Node) Served() int { return n.served }

// Stolen reports requests that landed here via work stealing.
func (n *Node) Stolen() int { return n.stolen }

// Down reports whether the boss has marked the node failed.
func (n *Node) Down() bool { return n.down }

// Draining reports whether the node is administratively excluded from
// routing (Drain without a failure).
func (n *Node) Draining() bool { return n.draining }

// Capacity reports the node's boot-time instance-slot snapshot — the
// boss's admission window.
func (n *Node) Capacity() int { return n.capacity }

// hasRoom is the boss's admission window for a node: requests dispatched
// but not completed, against the boot-time capacity snapshot. The boss
// never reads the machine's runtime state during a run (it lives in
// another domain); inflight-vs-capacity is its entire load model.
func (n *Node) hasRoom() bool { return n.capacity > 0 && n.inflight < n.capacity }

// BossConfig sizes a cluster.
type BossConfig struct {
	// Machines is the worker machine count (≥1).
	Machines int
	// HW configures every machine (homogeneous fleet).
	HW hw.Config
	// Opts configures every machine's Molecule runtime.
	Opts molecule.Options
	// Link is the cross-machine interconnect; zero value selects the
	// standard datacenter network (params.NetworkBaseLatency/Bandwidth).
	Link hw.Link
	// Capacity, when positive, overrides every general-purpose PU's
	// instance capacity — the scaled-down-cluster knob for experiments
	// that need saturation without millions of requests.
	Capacity int
}

// reply carries a completed request's outcome back to the submitting
// client process: res for a single invoke, cres for a chain.
type reply struct {
	res     molecule.Result
	cres    molecule.ChainResult
	machine int
	err     error
}

// request is one unit of routed work: a single invoke of fn, or a chain
// when chain is non-nil. Boss-side fields only; execution state crosses
// domains by value inside interconnect closures.
type request struct {
	fn    string
	opts  molecule.InvokeOptions
	chain []string

	attempts int // failover budget: distinct placements tried
	requeues int // capacity-requeue budget (see maxRequeues)
	done     *sim.Chan[reply]
}

// maxRequeues bounds how often one request may bounce dispatch → machine
// ErrNoCapacity → central queue. Machine-level eviction makes capacity
// rejections transient, so real traffic requeues at most a handful of
// times; the bound is the deterministic backstop that turns any residual
// pathological cycle into a visible error instead of a livelock.
const maxRequeues = 64

// slots is the request's charge against a machine's admission window: one
// per function it runs.
func (r *request) slots() int {
	if r.chain != nil {
		return len(r.chain)
	}
	return 1
}

// Boss is the cluster-scale global manager: it owns the sharded group, the
// interconnect, and N worker machines, and routes every request from
// domain 0.
type Boss struct {
	Sharded  *sim.Sharded
	IC       *hw.Interconnect
	Env      *sim.Env // domain 0: boss + clients
	Registry *workloads.Registry

	nodes    []*Node
	kinds    kindMask // PU kinds of every machine (one hw.Config)
	funcs    map[string]*registration
	inflight int

	queue      []*request // central FIFO: every eligible machine saturated
	queuedPeak int
	stolen     int
}

// NewBoss builds a cluster of cfg.Machines worker machines, boots every
// machine's runtime (running the group to quiescence once), and snapshots
// each machine's capacity and the fleet's PU kinds into the boss's routing
// state.
func NewBoss(cfg BossConfig) (*Boss, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: boss needs at least 1 machine, got %d", cfg.Machines)
	}
	link := cfg.Link
	if link == (hw.Link{}) {
		link = hw.Link{Kind: hw.LinkNetwork, BaseLat: params.NetworkBaseLatency, Bandwith: params.NetworkBandwidth}
	}
	sh := sim.NewSharded(cfg.Machines + 1)
	b := &Boss{
		Sharded:  sh,
		IC:       hw.NewInterconnect(sh, link),
		Env:      sh.Domain(0),
		Registry: workloads.NewRegistry(),
		funcs:    make(map[string]*registration),
	}
	bootErrs := make([]error, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		n := &Node{
			Domain:    i + 1,
			Env:       sh.Domain(i + 1),
			regs:      make(map[string][]molecule.Profile),
			deployed:  make(map[string]bool),
			deploying: make(map[string]*sim.WaitGroup),
		}
		b.nodes = append(b.nodes, n)
		idx := i
		n.Env.Spawn("boot", func(p *sim.Proc) {
			n.HW = hw.Build(n.Env, cfg.HW)
			rt, err := molecule.New(p, n.HW, workloads.NewRegistry(), cfg.Opts)
			if err != nil {
				bootErrs[idx] = err
				return
			}
			n.RT = rt
			if cfg.Capacity > 0 {
				for _, pu := range n.HW.PUs() {
					if pu.Kind.GeneralPurpose() {
						rt.SetCapacity(pu.ID, cfg.Capacity)
					}
				}
			}
		})
	}
	sh.Run(1) // boot to quiescence, single worker: nothing to parallelize yet
	for i, n := range b.nodes {
		if bootErrs[i] != nil {
			return nil, fmt.Errorf("cluster: machine %d boot: %w", i, bootErrs[i])
		}
		n.capacity = n.RT.Capacity()
	}
	b.kinds = machineKinds(b.nodes[0].HW)
	return b, nil
}

// Nodes returns the cluster's worker machines.
func (b *Boss) Nodes() []*Node { return b.nodes }

// Inflight reports requests inside the cluster (dispatched or queued but
// not yet replied). Zero when quiescent.
func (b *Boss) Inflight() int { return b.inflight + len(b.queue) }

// Queued reports requests parked in the central queue right now.
func (b *Boss) Queued() int { return len(b.queue) }

// QueuedPeak reports the central queue's high-water mark.
func (b *Boss) QueuedPeak() int { return b.queuedPeak }

// Stolen reports requests that were routed away from their affinity home
// because it was saturated.
func (b *Boss) Stolen() int { return b.stolen }

// Run drives the whole cluster to quiescence on the given OS worker count
// (0 = GOMAXPROCS) and returns the final virtual time. Results are
// byte-identical at every worker count.
func (b *Boss) Run(workers int) sim.Time {
	return b.Sharded.Run(workers)
}

// Register records a function with the boss and pushes the profiles the
// fleet's PU kinds can run to every machine. Call before Run —
// registrations are setup-time state shared with the machine domains.
func (b *Boss) Register(funcName string, profiles ...molecule.Profile) error {
	if _, err := b.Registry.Get(funcName); err != nil {
		return err
	}
	if len(profiles) == 0 {
		profiles = []molecule.Profile{molecule.DefaultProfile(hw.CPU)}
	}
	var mask kindMask
	var local []molecule.Profile
	for _, pr := range profiles {
		mask |= maskOf(pr.Kind)
		if b.kinds.has(pr.Kind) {
			local = append(local, pr)
		}
	}
	b.funcs[funcName] = &registration{profiles: profiles, mask: mask}
	if len(local) > 0 {
		for _, n := range b.nodes {
			n.regs[funcName] = local
		}
	}
	return nil
}

// Drain excludes a machine from routing; Undrain re-admits it. Both pump
// the central queue, since the eligible set changed.
func (b *Boss) Drain(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].draining = true
	b.pump()
	return nil
}

// Undrain re-admits a drained machine to routing.
func (b *Boss) Undrain(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].draining = false
	b.pump()
	return nil
}

// Readmit clears a machine's down mark after the operator revived it
// (faults.Revive), letting routing use it again.
func (b *Boss) Readmit(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].down = false
	b.pump()
	return nil
}

// rendezvous scores (fn, node) with a 64-bit FNV-1a hash: every function
// gets a stable, deterministic preference order over machines, so repeat
// invocations land on their warm instances (highest-random-weight
// hashing). Seeded data only — no global randomness — so the detrand
// invariant holds.
func rendezvous(fn string, domain int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fn))
	h.Write([]byte{byte(domain), byte(domain >> 8)})
	return h.Sum64()
}

// eligibleFor reports whether the node can run fn's registration at all.
func (b *Boss) eligibleFor(n *Node, mask kindMask) bool {
	return !n.draining && !n.down && b.kinds&mask != 0
}

// routeOne picks the node for a single-function request: affinity home if
// it has room; else steal to the least-loaded eligible node with room;
// else nil (caller queues). The error is non-nil only when no live
// eligible node exists at all.
func (b *Boss) routeOne(fn string) (*Node, bool, error) {
	r, ok := b.funcs[fn]
	if !ok {
		return nil, false, fmt.Errorf("cluster: function %q not registered", fn)
	}
	var home *Node
	var homeScore uint64
	var spill *Node
	spillLoad := 0.0
	any := false
	for _, n := range b.nodes {
		if !b.eligibleFor(n, r.mask) {
			continue
		}
		any = true
		if s := rendezvous(fn, n.Domain); home == nil || s > homeScore {
			home, homeScore = n, s
		}
		if !n.hasRoom() {
			continue
		}
		l := float64(n.inflight) / float64(n.capacity)
		if spill == nil || l < spillLoad {
			spill, spillLoad = n, l
		}
	}
	if !any {
		return nil, false, fmt.Errorf("cluster: no eligible machine for %q", fn)
	}
	if home != nil && home.hasRoom() {
		return home, false, nil
	}
	if spill != nil {
		return spill, true, nil // work stealing: home saturated
	}
	return nil, false, nil // all saturated: queue
}

// routeChain picks the machine for a whole chain: the rendezvous home of
// its first function among live machines with room, else among all live
// machines — a chain never steals, and locality still beats spreading when
// the home is saturated. The interconnect's base latency is ~10³× the
// intra-machine links, so the chain always runs on one machine.
func (b *Boss) routeChain(names []string) (*Node, error) {
	bad := -1
	for i, fn := range names {
		r, ok := b.funcs[fn]
		if !ok {
			return nil, fmt.Errorf("cluster: function %q not registered", fn)
		}
		if bad < 0 && b.kinds&r.mask == 0 {
			bad = i
		}
	}
	if bad >= 0 {
		return nil, fmt.Errorf("cluster: no machine can run %q", names[bad])
	}
	var home, fallback *Node
	var homeScore, fbScore uint64
	for _, n := range b.nodes {
		if n.draining || n.down {
			continue
		}
		s := rendezvous(names[0], n.Domain)
		if fallback == nil || s > fbScore {
			fallback, fbScore = n, s
		}
		if n.hasRoom() && (home == nil || s > homeScore) {
			home, homeScore = n, s
		}
	}
	if home == nil {
		home = fallback
	}
	if home == nil {
		return nil, fmt.Errorf("cluster: no machine can run %q", names[0])
	}
	return home, nil
}

// route picks req's machine: routeOne for a single invoke, routeChain for a
// chain. A nil node with a nil error means every eligible machine is
// saturated and the request waits in the central queue.
func (b *Boss) route(req *request) (n *Node, stolen bool, err error) {
	if req.chain == nil {
		return b.routeOne(req.fn)
	}
	n, err = b.routeChain(req.chain)
	return n, false, err
}

// Invoke submits one request from a client process on the boss domain and
// blocks until its reply. It satisfies loadgen.Invoker, so the same
// traffic model drives a single runtime or the whole cluster.
func (b *Boss) Invoke(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, error) {
	res, _, err := b.InvokeDetailed(p, funcName, opts)
	return res, err
}

// InvokeDetailed is Invoke plus the worker index that served the request.
func (b *Boss) InvokeDetailed(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, int, error) {
	rep := b.call(p, &request{fn: funcName, opts: opts})
	return rep.res, rep.machine, rep.err
}

// InvokeChain submits a chain, run whole on one machine, which places its
// functions on its own PUs (opts is not consulted). Satisfies
// loadgen.Invoker.
func (b *Boss) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	if len(names) == 0 {
		return molecule.ChainResult{}, fmt.Errorf("cluster: empty chain")
	}
	rep := b.call(p, &request{chain: names})
	return rep.cres, rep.err
}

// call submits req from client process p and blocks until its reply,
// charging the client↔boss network hop each way.
func (b *Boss) call(p *sim.Proc, req *request) reply {
	ingress(p)
	req.done = sim.NewChan[reply](b.Env, 1)
	if err := b.submit(req); err != nil {
		return reply{machine: -1, err: err}
	}
	rep, _ := req.done.Recv(p)
	ingress(p)
	return rep
}

// submit routes a request or queues it. Boss-domain only. A non-nil error
// means the request can never run (unregistered, or no live machine has
// the kinds).
func (b *Boss) submit(req *request) error {
	n, stolen, err := b.route(req)
	if err != nil {
		return err
	}
	if n == nil {
		b.enqueue(req)
		// A queue pumped only by completions strands the request when
		// nothing is inflight (zero-capacity cluster): pump now so the
		// saturated-idle case fails deterministically instead of parking
		// the client until quiescence.
		b.pump()
		return nil
	}
	b.dispatch(req, n, stolen)
	return nil
}

func (b *Boss) enqueue(req *request) {
	b.queue = append(b.queue, req)
	if len(b.queue) > b.queuedPeak {
		b.queuedPeak = len(b.queue)
	}
}

// dispatch charges req against node n's admission window and sends it
// there over the interconnect; the machine runs it and replies to the boss.
func (b *Boss) dispatch(req *request, n *Node, stolen bool) {
	if stolen {
		n.stolen++
		b.stolen++
	}
	n.inflight += req.slots()
	b.inflight += req.slots()
	//lint:owned request handoff: req travels with the message and is next touched only by the destination node's exec callback; b's fields are mutated only by deliveries on the boss domain
	b.IC.Send(b.Env, n.Domain, requestBytes, func() {
		name := "chain"
		if req.chain == nil {
			name = "exec-" + req.fn
		}
		n.Env.Spawn(name, func(wp *sim.Proc) {
			rep := n.run(wp, req)
			//lint:owned reply to the boss: rep is finalized before the send and b mutates its own state only on delivery in its domain
			b.IC.Send(n.Env, 0, replyBytes, func() {
				b.complete(req, n, rep)
			})
		})
	})
}

// wakeLocal releases every parked request to re-check admission.
func (n *Node) wakeLocal() {
	ws := n.waiters
	n.waiters = nil
	for _, ch := range ws {
		ch.TrySend(struct{}{})
	}
}

// awaitLocal parks the request until a local completion advances the
// epoch. It reports false — give up — when nothing else is running on the
// machine, so no completion can ever free a slot. Waiters woken without an
// epoch advance re-park (wake-all is only an invitation to re-check), and
// a give-up cascades the wake so other parked requests also notice.
func (n *Node) awaitLocal(wp *sim.Proc) bool {
	seen := n.epoch
	for n.epoch == seen {
		if n.active == 0 {
			n.wakeLocal()
			return false
		}
		ch := sim.NewChan[struct{}](n.Env, 1)
		n.waiters = append(n.waiters, ch)
		ch.Recv(wp)
	}
	return true
}

// attemptLocal runs req once on the local runtime — RT.Invoke for a single,
// RT.InvokeChainWithPolicy under chain affinity for a chain — with the
// admission bookkeeping: track active execs, bump the epoch on success, and
// wake parked requests after every attempt (success frees an instance;
// failure lets waiters re-check the give-up guard).
func (n *Node) attemptLocal(wp *sim.Proc, req *request) (rep reply) {
	n.active++
	if req.chain == nil {
		rep.res, rep.err = n.RT.Invoke(wp, req.fn, req.opts)
	} else {
		rep.cres, rep.err = n.RT.InvokeChainWithPolicy(wp, req.chain, molecule.PlaceChainAffinity)
	}
	n.active--
	if rep.err == nil {
		n.epoch++
	}
	n.wakeLocal()
	return rep
}

// run executes req on the node: machine-side deploy-on-first-use of every
// function it names, then the local runtime, parking on the machine's
// admission queue while it is at capacity.
func (n *Node) run(wp *sim.Proc, req *request) reply {
	failed := func(err error) reply { return reply{machine: n.ID(), err: err} }
	if req.chain == nil {
		if err := n.ensureDeployedLocal(wp, req.fn); err != nil {
			return failed(err)
		}
	}
	for _, fn := range req.chain {
		if err := n.ensureDeployedLocal(wp, fn); err != nil {
			return failed(err)
		}
	}
	for {
		rep := n.attemptLocal(wp, req)
		if rep.err == nil {
			rep.machine = n.ID()
			return rep
		}
		if !errors.Is(rep.err, molecule.ErrNoCapacity) || !n.awaitLocal(wp) {
			return failed(rep.err)
		}
	}
}

// ensureDeployedLocal deploys fn on first use; concurrent requests for the
// same function wait for the in-progress deploy instead of re-deploying.
func (n *Node) ensureDeployedLocal(wp *sim.Proc, fn string) error {
	for {
		if n.deployed[fn] {
			return nil
		}
		if wg := n.deploying[fn]; wg != nil {
			wg.Wait(wp)
			continue
		}
		profiles := n.regs[fn]
		if len(profiles) == 0 {
			return fmt.Errorf("cluster: %q not deployable on machine %d", fn, n.ID())
		}
		wg := sim.NewWaitGroup(n.Env)
		wg.Add(1)
		n.deploying[fn] = wg
		err := n.RT.Deploy(wp, fn, profiles...)
		if err == nil {
			n.deployed[fn] = true
		}
		delete(n.deploying, fn)
		wg.Done()
		return err
	}
}

// retryable reports an error class the boss handles by failing the machine
// over: the runtime exhausted recovery (ErrUnavailable) or the PU is dead.
func retryable(err error) bool {
	return errors.Is(err, molecule.ErrUnavailable) || errors.Is(err, faults.ErrPUDown)
}

// complete finishes a request on the boss domain (scheduler context —
// never blocks): release n's window, fail over on machine death, requeue
// on capacity races, reply otherwise; then pump the queue.
func (b *Boss) complete(req *request, n *Node, rep reply) {
	n.inflight -= req.slots()
	b.inflight -= req.slots()
	switch {
	case rep.err != nil && retryable(rep.err) && req.attempts < len(b.nodes):
		// The machine is unhealthy: mark it down and try the request
		// elsewhere. Readmit() re-admits after a revive.
		n.down = true
		req.attempts++
		if rerr := b.resubmit(req); rerr != nil {
			req.done.TrySend(rep)
		}
	case rep.err != nil && errors.Is(rep.err, molecule.ErrNoCapacity) && req.requeues < maxRequeues:
		// Admission raced a cold-start burst on the machine: park the
		// request centrally; completions pump it back out.
		req.requeues++
		b.enqueue(req)
	default:
		n.served++
		req.done.TrySend(rep)
	}
	b.pump()
}

// resubmit re-routes a failed-over request away from down machines.
func (b *Boss) resubmit(req *request) error {
	n, stolen, err := b.route(req)
	if err != nil {
		return err
	}
	if n == nil {
		b.enqueue(req)
		return nil
	}
	b.dispatch(req, n, stolen)
	return nil
}

// pump drains the central queue while machines have room; a chain leaves
// the queue only when its home machine has room. When the queue is
// non-empty but nothing is inflight and nothing has room, the queued
// requests can never be served — fail them rather than deadlock.
func (b *Boss) pump() {
	for len(b.queue) > 0 {
		req := b.queue[0]
		n, stolen, err := b.route(req)
		if err != nil {
			// The request became unservable (e.g. its only machines died).
			b.queue = b.queue[1:]
			req.done.TrySend(reply{machine: -1, err: err})
			continue
		}
		if n == nil || !n.hasRoom() {
			if b.inflight == 0 {
				// Nothing running, nothing admissible: fail the whole queue
				// deterministically rather than strand the clients.
				for _, q := range b.queue {
					q.done.TrySend(reply{machine: -1, err: errClusterSaturated})
				}
				b.queue = nil
			}
			return
		}
		b.queue = b.queue[1:]
		b.dispatch(req, n, stolen)
	}
}
