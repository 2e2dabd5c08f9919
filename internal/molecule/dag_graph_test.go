package molecule

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestDAGValidate(t *testing.T) {
	if _, err := (DAG{}).Validate(); err == nil {
		t.Error("empty DAG accepted")
	}
	if _, err := (DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{0}}}}).Validate(); err == nil {
		t.Error("self-dependency accepted")
	}
	if _, err := (DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{5}}}}).Validate(); err == nil {
		t.Error("out-of-range dependency accepted")
	}
	// Cycle: 0 → 1 → 0.
	cyc := DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{1}}, {Fn: "b", Deps: []int{0}}}}
	if _, err := cyc.Validate(); err == nil {
		t.Error("cycle accepted")
	}
	order, err := MapReduceDAG(2).Validate()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Errorf("topological order wrong: %v", order)
	}
}

func TestChainBuilder(t *testing.T) {
	c := Chain("a", "b", "c")
	if len(c.Nodes) != 3 || len(c.Nodes[0].Deps) != 0 ||
		c.Nodes[2].Deps[0] != 1 {
		t.Errorf("chain structure wrong: %+v", c)
	}
}

func deployMapReduce(t *testing.T, p *sim.Proc, rt *Runtime) {
	t.Helper()
	for _, fn := range workloads.MapReduceChain() {
		if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvokeDAGLinearMatchesChainShape(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployMapReduce(t, p, rt)
		dag := Chain(workloads.MapReduceChain()...)
		warm, err := rt.InvokeDAG(p, dag, DAGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.ColdStarts != 3 {
			t.Errorf("first run cold starts = %d, want 3", warm.ColdStarts)
		}
		res, err := rt.InvokeDAG(p, dag, DAGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ColdStarts != 0 {
			t.Errorf("second run cold starts = %d", res.ColdStarts)
		}
		// Linear DAG: finish times strictly increase along the chain.
		for i := 1; i < len(res.NodeFinish); i++ {
			if res.NodeFinish[i] <= res.NodeFinish[i-1] {
				t.Errorf("node %d finished at %v, not after node %d (%v)",
					i, res.NodeFinish[i], i-1, res.NodeFinish[i-1])
			}
		}
		// The response travels back up the chain, so the gateway round
		// trip outlasts the sink's handler; every hop is one measured edge.
		if sink := res.NodeFinish[len(res.NodeFinish)-1]; res.Total <= sink {
			t.Errorf("total %v not above sink finish %v", res.Total, sink)
		}
		if got, want := len(res.EdgeLatency), len(dag.Nodes)-1; got != want {
			t.Errorf("%d edge latencies, want %d", got, want)
		}
		for k, lat := range res.EdgeLatency {
			if lat <= 0 {
				t.Errorf("edge %d latency %v, want > 0", k, lat)
			}
		}
	})
}

// TestInvokeDAGFanOutParallelizes: two mappers that each take T must
// overlap, so the fan-out DAG's makespan is far below the serialized sum.
func TestInvokeDAGFanOutParallelizes(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployMapReduce(t, p, rt)
		fan := MapReduceDAG(2)
		serial := Chain("mr-splitter", "mr-mapper", "mr-mapper", "mr-reducer")
		// Warm both.
		if _, err := rt.InvokeDAG(p, fan, DAGOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.InvokeDAG(p, serial, DAGOptions{}); err != nil {
			t.Fatal(err)
		}
		fres, err := rt.InvokeDAG(p, fan, DAGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := rt.InvokeDAG(p, serial, DAGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fres.Total >= sres.Total {
			t.Errorf("fan-out makespan %v not below serialized %v", fres.Total, sres.Total)
		}
		// Both mappers finish at (nearly) the same time.
		m1, m2 := fres.NodeFinish[1], fres.NodeFinish[2]
		diff := m1 - m2
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Millisecond {
			t.Errorf("mappers finished %v apart — not parallel", diff)
		}
		// Exec totals match (same work, different schedule).
		if fres.ExecTotal != sres.ExecTotal {
			t.Errorf("exec totals differ: %v vs %v", fres.ExecTotal, sres.ExecTotal)
		}
	})
}

func TestInvokeDAGCrossPUEdges(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployMapReduce(t, p, rt)
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		dag := MapReduceDAG(2)
		local := DAGOptions{}
		cross := DAGOptions{Placement: []hw.PUID{0, dpu, 0, dpu}}
		if _, err := rt.InvokeDAG(p, dag, local); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.InvokeDAG(p, dag, cross); err != nil {
			t.Fatal(err)
		}
		lres, _ := rt.InvokeDAG(p, dag, local)
		cres, err := rt.InvokeDAG(p, dag, cross)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Total <= lres.Total {
			t.Errorf("cross-PU DAG (%v) not slower than co-located (%v)", cres.Total, lres.Total)
		}
	})
}

func TestInvokeDAGErrors(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.InvokeDAG(p, DAG{}, DAGOptions{}); err == nil {
			t.Error("empty DAG invoked")
		}
		if _, err := rt.InvokeDAG(p, Chain("nope"), DAGOptions{}); err == nil {
			t.Error("undeployed DAG invoked")
		}
		rt.Deploy(p, "matmul")
		if _, err := rt.InvokeDAG(p, Chain("matmul"), DAGOptions{Placement: []hw.PUID{0, 0}}); err == nil {
			t.Error("bad placement length accepted")
		}
	})
}

// randomDAG builds a DAG of 1..8 nodes whose dependencies point to earlier
// nodes of a hidden topological order, then shuffles the node indices so
// the node order is not the topological order.
func randomDAG(rng *rand.Rand) DAG {
	n := 1 + rng.Intn(8)
	fns := workloads.MapReduceChain()
	perm := rng.Perm(n) // topological position k lives at node index perm[k]
	d := DAG{Nodes: make([]DAGNode, n)}
	for k := 0; k < n; k++ {
		node := DAGNode{Fn: fns[rng.Intn(len(fns))]}
		for j := 0; j < k; j++ {
			if rng.Intn(3) == 0 {
				node.Deps = append(node.Deps, perm[j])
			}
		}
		d.Nodes[perm[k]] = node
	}
	return d
}

// TestInvokeDAGRandomShapes: over seeded random DAGs (fan-out, fan-in,
// diamonds, several roots and sinks) with random CPU/DPU placement, every
// invocation completes with no blocked process, measures one edge per
// dependency, answers the gateway after every handler ends, and bills one
// entry per node.
func TestInvokeDAGRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dags := []DAG{
		{Nodes: []DAGNode{{Fn: "mr-splitter"}, {Fn: "mr-mapper", Deps: []int{0}},
			{Fn: "mr-mapper", Deps: []int{0}}, {Fn: "mr-reducer", Deps: []int{1, 2}}}}, // diamond
		{Nodes: []DAGNode{{Fn: "mr-reducer", Deps: []int{1, 2}}, {Fn: "mr-mapper"}, {Fn: "mr-mapper"}}}, // fan-in of two roots
	}
	for len(dags) < 40 {
		dags = append(dags, randomDAG(rng))
	}
	for k, dag := range dags {
		placement := make([]hw.PUID, len(dag.Nodes))
		for i := range placement {
			placement[i] = hw.PUID(rng.Intn(2)) // PU 0 is the host CPU, PU 1 the DPU
		}
		run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
			deployMapReduce(t, p, rt)
			edges := 0
			for _, node := range dag.Nodes {
				edges += len(node.Deps)
			}
			for round := 0; round < 2; round++ { // cold, then warm
				billed := len(rt.Billing().Entries())
				res, err := rt.InvokeDAG(p, dag, DAGOptions{Placement: placement})
				if err != nil {
					t.Errorf("dag %d %+v: %v", k, dag, err)
					return
				}
				if len(res.EdgeLatency) != edges {
					t.Errorf("dag %d: %d edge latencies, want %d", k, len(res.EdgeLatency), edges)
				}
				for e, lat := range res.EdgeLatency {
					if lat <= 0 {
						t.Errorf("dag %d: edge %d latency %v", k, e, lat)
					}
				}
				for i, f := range res.NodeFinish {
					if f <= 0 || f >= res.Total {
						t.Errorf("dag %d: node %d finished at %v, total %v", k, i, f, res.Total)
					}
				}
				if got := len(rt.Billing().Entries()) - billed; got != len(dag.Nodes) {
					t.Errorf("dag %d: billed %d entries, want %d", k, got, len(dag.Nodes))
				}
			}
		})
		if t.Failed() {
			return
		}
	}
}

// FuzzDAGValidate: for any dependency structure, Validate either errors or
// returns a permutation of the node indices in which every dependency comes
// before the node that needs it.
func FuzzDAGValidate(f *testing.F) {
	f.Add([]byte{4, 1, 0, 2, 0, 3, 1, 3, 2}) // MapReduceDAG(2)
	f.Add([]byte{2, 0, 1, 1, 0})             // cycle
	f.Add([]byte{1, 0, 0})                   // self-dependency
	f.Add([]byte{3, 2, 0xff, 1, 9})          // out of range
	f.Add([]byte{0})                         // empty
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 17
		dag := DAG{Nodes: make([]DAGNode, n)}
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			to := int(data[i]) % n
			dag.Nodes[to].Deps = append(dag.Nodes[to].Deps, int(int8(data[i+1])))
		}
		order, err := dag.Validate()
		if err != nil {
			return
		}
		if len(order) != n {
			t.Fatalf("order %v has %d entries, want %d", order, len(order), n)
		}
		pos := make([]int, n)
		seen := make([]bool, n)
		for k, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("order %v is not a permutation of 0..%d", order, n-1)
			}
			seen[i] = true
			pos[i] = k
		}
		for i, node := range dag.Nodes {
			for _, dep := range node.Deps {
				if pos[dep] >= pos[i] {
					t.Fatalf("node %d at %d precedes its dependency %d at %d", i, pos[i], dep, pos[dep])
				}
			}
		}
	})
}
