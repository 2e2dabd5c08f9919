// Cluster: the platform view — the boss (the paper's global manager, Fig 6)
// routing functions across three worker machines, each with 2 DPUs and an
// FPGA. Repeat invocations stay on their function's warm home machine;
// FPGA-only work runs on an FPGA PU; chains stay on one computer for
// communication locality.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: 3, HW: hw.Config{DPUs: 2, FPGAs: 1}, Opts: molecule.DefaultOptions(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range b.Nodes() {
		fmt.Printf("machine %d: %d PUs, capacity %d instances\n", n.ID(), len(n.HW.PUs()), n.Capacity())
	}

	// Register functions with their profiles once, platform-wide; each
	// machine deploys a function on its first request there.
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(b.Register("matmul", molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)))
	must(b.Register("gzip-compression", molecule.DefaultProfile(hw.FPGA)))
	chain := workloads.MapReduceChain()
	for _, fn := range chain {
		must(b.Register(fn, molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)))
	}

	b.Env.Spawn("client", func(p *sim.Proc) {
		// Affinity: every matmul lands on its home machine, warm after the
		// first.
		for i := 0; i < 4; i++ {
			res, machine, err := b.InvokeDetailed(p, "matmul", molecule.DefaultInvokeOptions())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("matmul #%d -> machine %d (%v, cold=%v, total %v)\n",
				i, machine, res.Kind, res.Cold, res.Total)
		}
		// FPGA-only registration: served by an FPGA PU.
		res, machine, err := b.InvokeDetailed(p, "gzip-compression",
			molecule.InvokeOptions{PU: -1, Arg: workloads.Arg{Bytes: 50 << 20}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gzip(50MB) -> machine %d on %v, total %v\n", machine, res.Kind, res.Total)

		// A chain is placed on one machine: every edge is an intra-machine
		// link, none an interconnect hop.
		for _, label := range []string{"cold", "warm"} {
			chainRes, err := b.InvokeChain(p, chain, molecule.ChainOptions{})
			if err != nil {
				log.Fatal(err)
			}
			local := true
			for _, e := range chainRes.EdgeLatency {
				local = local && e < b.IC.Lookahead()
			}
			fmt.Printf("MapReduce chain (%s): e2e %v, %d cold starts, on one machine: %v\n",
				label, chainRes.Total, chainRes.ColdStarts, local)
		}
	})
	b.Run(0)

	for _, n := range b.Nodes() {
		fmt.Printf("machine %d served %d requests\n", n.ID(), n.Served())
	}
}
