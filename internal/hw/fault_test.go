package hw

import (
	"errors"
	"testing"
	"time"

	"repro/internal/params"
	"repro/internal/sim"
)

// fakeInjector is a scriptable FaultInjector for Transfer tests.
type fakeInjector struct {
	inflate float64
	err     error
	calls   int
}

func (f *fakeInjector) TransferFault(a, b PUID) (float64, error) {
	f.calls++
	return f.inflate, f.err
}

func TestTransferFaultError(t *testing.T) {
	env, m := testMachine(t, Config{DPUs: 1})
	injected := errors.New("boom")
	fi := &fakeInjector{inflate: 1, err: injected}
	m.Faults = fi
	env.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.Transfer(p, 0, 1, 4096); !errors.Is(err, injected) {
			t.Errorf("Transfer err = %v, want injected fault", err)
		}
		if p.Now() != start {
			t.Error("failed transfer charged virtual time")
		}
	})
	env.Run()
	if fi.calls != 1 {
		t.Errorf("injector consulted %d times, want 1", fi.calls)
	}
}

func TestTransferFaultInflation(t *testing.T) {
	baseline := func(inflate float64) time.Duration {
		env, m := testMachine(t, Config{DPUs: 1})
		if inflate > 0 {
			m.Faults = &fakeInjector{inflate: inflate}
		}
		var took sim.Time
		env.Spawn("xfer", func(p *sim.Proc) {
			if _, err := m.Transfer(p, 0, 1, 4096); err != nil {
				t.Error(err)
			}
			took = p.Now()
		})
		env.Run()
		return time.Duration(took)
	}
	healthy := baseline(0)
	identity := baseline(1)
	inflated := baseline(3)
	if identity != healthy {
		t.Errorf("inflate=1 changed timing: %v vs %v", identity, healthy)
	}
	bw := float64(params.RDMABandwidth)
	want := 3 * (params.RDMABaseLatency + time.Duration(4096/bw*float64(time.Second)))
	if inflated != want {
		t.Errorf("inflate=3 transfer took %v, want %v", inflated, want)
	}
}

// TestTransferHugeInflationSaturates: an inflation factor so large that the
// stretched latency overflows a Duration must leave the transfer stuck at
// the end of virtual time, not wrap negative and make it instant.
func TestTransferHugeInflationSaturates(t *testing.T) {
	for _, batch := range []bool{false, true} {
		env, m := testMachine(t, Config{DPUs: 1})
		m.Faults = &fakeInjector{inflate: 1e300}
		done := false
		env.Spawn("xfer", func(p *sim.Proc) {
			var err error
			if batch {
				_, err = m.TransferBatch(p, 0, 1, []int{4096})
			} else {
				_, err = m.Transfer(p, 0, 1, 4096)
			}
			if err != nil {
				t.Error(err)
			}
			done = true
		})
		env.RunUntil(sim.Time(time.Hour))
		if done {
			t.Errorf("batch=%v: transfer at inflate=1e300 finished within an hour", batch)
		}
		if end := env.Run(); !done || end != sim.MaxTime {
			t.Errorf("batch=%v: transfer done=%v at %v, want done at sim.MaxTime", batch, done, end)
		}
	}
}
