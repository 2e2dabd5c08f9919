package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// The boss routes an FPGA-profiled function to a machine's FPGA,
// deploying it there on first use; the repeat call lands on the same
// warm home machine.
func Example() {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: 3, HW: hw.Config{DPUs: 2, FPGAs: 1}, Opts: molecule.DefaultOptions(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		fmt.Println(err)
		return
	}
	b.Env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			res, machine, err := b.InvokeDetailed(p, "mscale", molecule.DefaultInvokeOptions())
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("mscale served by machine %d on %v\n", machine, res.Kind)
		}
	})
	b.Run(1)
	// Output:
	// mscale served by machine 0 on FPGA
	// mscale served by machine 0 on FPGA
}
