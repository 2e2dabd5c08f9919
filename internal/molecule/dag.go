package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// ChainOptions configure a function-chain invocation; a chain is the
// linear DAG, so they are the DAG's options.
type ChainOptions = DAGOptions

// ChainResult reports a chain invocation's end-to-end outcome.
type ChainResult = DAGResult

// pipe is one direction of a chain edge: a local FIFO when both ends share
// a PU, an XPU-FIFO otherwise.
type pipe struct {
	local *localos.FIFO
	// sender / receiver descriptors for the nIPC case.
	sendFD *xpu.FD
	recvFD *xpu.FD
}

func (pp *pipe) send(p *sim.Proc, m localos.Message) error {
	if pp.local != nil {
		pp.local.Write(p, m)
		return nil
	}
	return pp.sendFD.Write(p, m)
}

func (pp *pipe) recv(p *sim.Proc) (localos.Message, error) {
	if pp.local != nil {
		m, ok := pp.local.Read(p)
		if !ok {
			return localos.Message{}, fmt.Errorf("molecule: chain FIFO closed")
		}
		return m, nil
	}
	return pp.recvFD.Read(p)
}

// edge is the full-duplex direct connection between a caller and callee
// (§4.3 "direct connect": a pair of FIFOs, no intermediate bus or engine).
type edge struct {
	req  *pipe
	resp *pipe
	// argB is the request payload size: the callee's argument bytes.
	argB int
	// sentAt is when the caller started the request; lat is the request
	// latency the callee measures, write start → dispatch complete (what
	// Fig 12 plots).
	sentAt sim.Time
	lat    time.Duration
}

// endpoint is one side of a chain edge: a shim node plus the OS process
// that owns the FIFO descriptors.
type endpoint struct {
	node *puNode
	proc *localos.Process
}

func instEndpoint(inst *instance) endpoint {
	return endpoint{node: inst.node, proc: inst.sb.Inst.Proc}
}

// buildEdge wires a duplex connection from caller to callee. The request
// FIFO is homed at the callee (its self_fifo); the response FIFO at the
// caller.
func (rt *Runtime) buildEdge(p *sim.Proc, caller, callee endpoint) (*edge, error) {
	if caller.node.pu.ID == callee.node.pu.ID {
		os := caller.node.os
		req := os.CreateFIFO(rt.nextFIFO("req"), 4)
		resp := os.CreateFIFO(rt.nextFIFO("resp"), 4)
		return &edge{req: &pipe{local: req}, resp: &pipe{local: resp}}, nil
	}
	callerX := caller.node.node.Register(caller.proc)
	calleeX := callee.node.node.Register(callee.proc)

	mk := func(home endpoint, homeX, peerX xpu.XPID, peerNode *xpu.Node, name string) (*pipe, error) {
		uuid := rt.nextFIFO(name)
		homeFD, err := home.node.node.FIFOInit(p, homeX, uuid, 4)
		if err != nil {
			return nil, err
		}
		obj := xpu.ObjID{Kind: "fifo", UUID: uuid}
		if err := home.node.node.GrantCap(p, homeX, peerX, obj, xpu.PermRead|xpu.PermWrite); err != nil {
			return nil, err
		}
		peerFD, err := peerNode.FIFOConnect(p, peerX, uuid)
		if err != nil {
			return nil, err
		}
		return &pipe{sendFD: peerFD, recvFD: homeFD}, nil
	}
	req, err := mk(callee, calleeX, callerX, caller.node.node, "req")
	if err != nil {
		return nil, err
	}
	resp, err := mk(caller, callerX, calleeX, callee.node.node, "resp")
	if err != nil {
		return nil, err
	}
	// In the response pipe the callee sends and the caller receives.
	return &edge{req: req, resp: resp}, nil
}

// InvokeChain runs a synchronous function chain: the linear DAG over the
// same direct-connect IPC/nIPC edges (Fig 12, Fig 14e).
func (rt *Runtime) InvokeChain(p *sim.Proc, names []string, opts ChainOptions) (ChainResult, error) {
	return rt.InvokeDAG(p, Chain(names...), opts)
}

// AccelChainOptions configure a host-driven accelerator chain.
type AccelChainOptions struct {
	Arg workloads.Arg
	// ForceCopy disables the DRAM-retention zero-copy path even when the
	// device supports it (the Fig 13 "Copying" series).
	ForceCopy bool
	// CPUFallback executes every stage on the CPU instead (comparison
	// series of Fig 14f/g/h).
	CPUFallback bool
}

// InvokeAccelChain runs a chain whose stages may live on accelerators. The
// host executor drives the pipeline; consecutive FPGA stages on the same
// device exchange data through retained DRAM banks (zero copy, §4.3)
// unless ForceCopy is set.
func (rt *Runtime) InvokeAccelChain(p *sim.Proc, names []string, opts AccelChainOptions) (ChainResult, error) {
	if len(names) == 0 {
		return ChainResult{}, fmt.Errorf("molecule: empty chain")
	}
	var res ChainResult
	start := p.Now()

	type stage struct {
		d    *Deployment
		fpga *puNode
		id   string
	}
	stages := make([]stage, len(names))
	for i, name := range names {
		d, err := rt.Deployment(name)
		if err != nil {
			return ChainResult{}, err
		}
		stages[i].d = d
		if !opts.CPUFallback && d.SupportsKind(hw.FPGA) {
			n, id, err := rt.fpgaSandboxFor(name)
			if err != nil {
				if err := rt.extendFPGAImages(p, name); err != nil {
					return ChainResult{}, err
				}
				if n, id, err = rt.fpgaSandboxFor(name); err != nil {
					return ChainResult{}, err
				}
			}
			stages[i].fpga, stages[i].id = n, id
		}
	}

	for i, st := range stages {
		execStart := p.Now()
		if st.fpga != nil {
			prevFPGA := i > 0 && stages[i-1].fpga == st.fpga
			nextFPGA := i < len(stages)-1 && stages[i+1].fpga == st.fpga
			retention := st.fpga.pu.Device.Retention() && !opts.ForceCopy
			argB, resB := st.d.Fn.Sizes(opts.Arg)
			iopts := sandbox.InvokeOptions{
				InputRetained: prevFPGA && retention,
				RetainOutput:  nextFPGA && retention,
			}
			if iopts.InputRetained {
				if err := st.fpga.runf.MarkRetained(st.d.Fn.Name); err != nil {
					return ChainResult{}, err
				}
			}
			if err := st.fpga.runf.Invoke(p, st.id, argB, resB, st.d.Fn.FabricCost(opts.Arg), iopts); err != nil {
				return ChainResult{}, err
			}
		} else {
			// General-purpose stage on the host: warm instance + dispatch.
			inst, cold, err := rt.acquire(p, st.d, rt.hostID, false, nil)
			if err != nil {
				return ChainResult{}, err
			}
			if cold {
				res.ColdStarts++
			}
			p.Sleep(scaledDispatch(inst.node.pu))
			inst.sb.Inst.Invoke(p, st.d.Fn.CPUCost(opts.Arg), inst.forked)
			rt.release(p, inst)
		}
		d := p.Now().Sub(execStart)
		res.ExecTotal += d
		res.EdgeLatency = append(res.EdgeLatency, d)
	}
	res.Total = p.Now().Sub(start)
	return res, nil
}
