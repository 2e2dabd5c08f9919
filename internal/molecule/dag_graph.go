package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// DAGNode is one vertex of a general serverless DAG: a function plus the
// indices of the nodes whose outputs it consumes.
type DAGNode struct {
	Fn   string
	Deps []int
}

// DAG is a directed acyclic graph of functions — the general form of the
// paper's "function chain (or DAG)" (§4.1). Fan-out (one producer, many
// consumers) and fan-in (a consumer joining several producers) both work;
// independent branches execute concurrently.
type DAG struct {
	Nodes []DAGNode
}

// Chain builds a linear DAG from a function list.
func Chain(names ...string) DAG {
	d := DAG{}
	for i, n := range names {
		node := DAGNode{Fn: n}
		if i > 0 {
			node.Deps = []int{i - 1}
		}
		d.Nodes = append(d.Nodes, node)
	}
	return d
}

// MapReduceDAG builds the fan-out/fan-in MapReduce application: one
// splitter, `mappers` parallel mappers, one reducer.
func MapReduceDAG(mappers int) DAG {
	d := DAG{Nodes: []DAGNode{{Fn: "mr-splitter"}}}
	var mapIdx []int
	for i := 0; i < mappers; i++ {
		d.Nodes = append(d.Nodes, DAGNode{Fn: "mr-mapper", Deps: []int{0}})
		mapIdx = append(mapIdx, i+1)
	}
	d.Nodes = append(d.Nodes, DAGNode{Fn: "mr-reducer", Deps: mapIdx})
	return d
}

// Validate checks acyclicity and dependency bounds, returning a topological
// order.
func (d DAG) Validate() ([]int, error) {
	n := len(d.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("molecule: empty DAG")
	}
	indeg := make([]int, n)
	for i, node := range d.Nodes {
		for _, dep := range node.Deps {
			if dep < 0 || dep >= n {
				return nil, fmt.Errorf("molecule: node %d depends on out-of-range node %d", i, dep)
			}
			if dep == i {
				return nil, fmt.Errorf("molecule: node %d depends on itself", i)
			}
			indeg[i]++
		}
	}
	var order []int
	queue := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			queue = append(queue, i)
		}
	}
	consumers := make([][]int, n)
	for i, node := range d.Nodes {
		for _, dep := range node.Deps {
			consumers[dep] = append(consumers[dep], i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, c := range consumers[i] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("molecule: DAG contains a cycle")
	}
	return order, nil
}

// DAGOptions configure one DAG (or chain) invocation.
type DAGOptions struct {
	// Placement pins each node to a PU; nil applies the chain-affinity
	// policy (§5 "Profile selections"): every node lands on the host.
	// Entries of -1 fall back to the host.
	Placement []hw.PUID
	// Arg parameterizes cost models.
	Arg workloads.Arg
}

// DAGResult reports one DAG invocation.
type DAGResult struct {
	// Total is the gateway round trip: requests out to the roots until
	// every root has answered.
	Total time.Duration
	// NodeFinish is each handler's end time relative to the start.
	NodeFinish []time.Duration
	// EdgeLatency is the request latency of each dependency edge (caller
	// write start → callee dispatch complete, what Fig 12 plots), in node
	// order; gateway edges are not included.
	EdgeLatency []time.Duration
	// ExecTotal sums all handlers' execution time (CPU work, not makespan).
	ExecTotal  time.Duration
	ColdStarts int
}

// InvokeDAG runs a DAG synchronously over direct-connect IPC/nIPC (§4.3
// "direct connect", Fig 12): every node runs as its own process on its
// instance, the gateway holds one duplex edge to each root, and every
// dependency is one duplex edge from producer to consumer — a local FIFO
// pair when both ends share a PU, an XPU-FIFO pair otherwise. A node blocks
// until a request has arrived on each in-edge, executes, sends a request to
// each consumer, collects their responses, and only then answers each
// producer, so responses travel back up the graph to the gateway.
// Independent branches overlap in time, so fan-out genuinely parallelizes;
// a chain is the linear DAG (Chain).
func (rt *Runtime) InvokeDAG(p *sim.Proc, dag DAG, opts DAGOptions) (DAGResult, error) {
	order, err := dag.Validate()
	if err != nil {
		return DAGResult{}, err
	}
	n := len(dag.Nodes)
	placement := opts.Placement
	if placement == nil {
		placement = make([]hw.PUID, n)
		for i := range placement {
			placement[i] = rt.hostID // chain affinity: co-locate the DAG
		}
	}
	if len(placement) != n {
		return DAGResult{}, fmt.Errorf("molecule: placement length %d != %d nodes", len(placement), n)
	}

	// Acquire instances (warm where possible) in topological order. The
	// release defer is registered before the acquire loop: when a later
	// node's acquire fails (capacity race between concurrent invocations),
	// the instances already acquired must go back to the warm pool —
	// leaking them pins liveCount above capacity forever and wedges every
	// subsequent placement (caught by moleculelint's releasepath analyzer).
	var res DAGResult
	insts := make([]*instance, n)
	deps := make([]*Deployment, n)
	defer func() {
		for _, inst := range insts {
			if inst != nil {
				rt.release(p, inst)
			}
		}
	}()
	for _, i := range order {
		d, err := rt.Deployment(dag.Nodes[i].Fn)
		if err != nil {
			return DAGResult{}, err
		}
		deps[i] = d
		pin := placement[i]
		if pin < 0 {
			pin = rt.hostID
		}
		inst, cold, err := rt.acquire(p, d, pin, false, nil)
		if err != nil {
			return DAGResult{}, err
		}
		if cold {
			res.ColdStarts++
		}
		insts[i] = inst
	}

	// Wire the gateway's edge to each root first, then one edge per
	// dependency in node order.
	hostNode := rt.nodes[rt.hostID]
	gw := endpoint{node: hostNode, proc: hostNode.os.NewDetachedProcess("gateway")}
	in := make([][]*edge, n)
	out := make([][]*edge, n)
	var roots, depEdges []*edge
	wire := func(from endpoint, to int) (*edge, error) {
		e, err := rt.buildEdge(p, from, instEndpoint(insts[to]))
		if err != nil {
			return nil, err
		}
		e.argB, _ = deps[to].Fn.Sizes(opts.Arg)
		in[to] = append(in[to], e)
		return e, nil
	}
	for i, node := range dag.Nodes {
		if len(node.Deps) == 0 {
			e, err := wire(gw, i)
			if err != nil {
				return DAGResult{}, err
			}
			roots = append(roots, e)
		}
	}
	for i, node := range dag.Nodes {
		for _, dep := range node.Deps {
			e, err := wire(instEndpoint(insts[dep]), i)
			if err != nil {
				return DAGResult{}, err
			}
			out[dep] = append(out[dep], e)
			depEdges = append(depEdges, e)
		}
	}

	finish := make([]sim.Time, n)
	execDur := make([]time.Duration, n)
	done := sim.NewWaitGroup(rt.Env)
	done.Add(n)
	for i := n - 1; i >= 0; i-- {
		inst, d := insts[i], deps[i]
		rt.Env.Spawn("chain-"+inst.fn, func(fp *sim.Proc) {
			defer done.Done()
			// The language runtime's per-hop dispatch work splits between
			// the sender (serialize the event) and the receiver
			// (deserialize, schedule the handler), each on its own PU.
			half := scaledDispatch(inst.node.pu) / 2
			for _, e := range in[i] {
				if _, err := e.req.recv(fp); err != nil {
					return
				}
			}
			fp.Sleep(half)
			for _, e := range in[i] {
				e.lat = time.Duration(fp.Now() - e.sentAt)
			}
			start := fp.Now()
			inst.sb.Inst.Invoke(fp, d.Fn.CPUCost(opts.Arg), inst.forked)
			finish[i] = fp.Now()
			execDur[i] = finish[i].Sub(start)
			inst.node.busy += execDur[i]

			// Send every downstream request before waiting on any response.
			for _, e := range out[i] {
				e.sentAt = fp.Now()
				fp.Sleep(half) // serialize the downstream request
				if err := e.req.send(fp, localos.Message{
					From: inst.fn, Kind: "req", Payload: make([]byte, e.argB),
				}); err != nil {
					return
				}
			}
			var respPayload []byte
			for _, e := range out[i] {
				resp, err := e.resp.recv(fp)
				if err != nil {
					return
				}
				fp.Sleep(half) // deserialize the downstream response
				respPayload = resp.Payload
			}
			if len(out[i]) == 0 {
				_, resB := d.Fn.Sizes(opts.Arg)
				respPayload = make([]byte, resB)
			}
			for _, e := range in[i] {
				fp.Sleep(half) // serialize the response
				e.resp.send(fp, localos.Message{From: inst.fn, Kind: "resp", Payload: respPayload})
			}
		})
	}

	// Drive the requests from the gateway and wait for every response.
	start := p.Now()
	for _, e := range roots {
		e.sentAt = p.Now()
		if err := e.req.send(p, localos.Message{
			From: "gateway", Kind: "req", Payload: make([]byte, e.argB),
		}); err != nil {
			return DAGResult{}, err
		}
	}
	for _, e := range roots {
		if _, err := e.resp.recv(p); err != nil {
			return DAGResult{}, err
		}
	}
	res.Total = p.Now().Sub(start)
	done.Wait(p)

	res.NodeFinish = make([]time.Duration, n)
	for i := range finish {
		res.NodeFinish[i] = finish[i].Sub(start)
		res.ExecTotal += execDur[i]
	}
	res.EdgeLatency = make([]time.Duration, len(depEdges))
	for k, e := range depEdges {
		res.EdgeLatency[k] = e.lat
	}
	for i, d := range deps {
		pr, _ := d.ProfileFor(insts[i].node.pu.Kind)
		rt.bill.Record(d.Fn.Name, insts[i].node.pu.Kind, execDur[i], pr.PricePerMs)
	}
	return res, nil
}
