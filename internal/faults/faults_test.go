package faults

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

func TestCrashWindows(t *testing.T) {
	env := sim.NewEnv()
	pl := NewPlan(env, 1)
	pl.CrashPU(2, at(time.Second), at(3*time.Second))

	probe := func(when time.Duration, want bool) {
		env.At(at(when), func() {
			if got := pl.Down(2); got != want {
				t.Errorf("Down(2) at %v = %v, want %v", when, got, want)
			}
			if pl.Down(1) {
				t.Errorf("Down(1) at %v = true, want false", when)
			}
		})
	}
	probe(500*time.Millisecond, false)
	probe(time.Second, true) // window is inclusive of From
	probe(2*time.Second, true)
	probe(3*time.Second, false) // ...and exclusive of To
	env.Run()
}

func TestKillReviveAndOpenWindow(t *testing.T) {
	env := sim.NewEnv()
	pl := NewPlan(env, 1)
	env.At(at(time.Second), func() { pl.Kill(3) })
	env.At(at(2*time.Second), func() {
		if !pl.Down(3) {
			t.Error("PU 3 should be down after Kill")
		}
		pl.Revive(3)
		if pl.Down(3) {
			t.Error("PU 3 should be up after Revive")
		}
	})
	env.At(at(3*time.Second), func() {
		if pl.Down(3) {
			t.Error("revived PU 3 stayed down")
		}
	})
	env.Run()
}

func TestTransferFault(t *testing.T) {
	env := sim.NewEnv()
	pl := NewPlan(env, 1)
	pl.CrashPU(1, 0, 0) // down forever
	pl.PartitionLink(0, 2, at(time.Second), at(2*time.Second))
	pl.InflateLink(0, 3, 4, 0, 0)
	pl.InflateLink(0, 3, 2.5, 0, 0) // overlapping weaker window loses

	if _, err := pl.TransferFault(0, 1); !errors.Is(err, ErrPUDown) {
		t.Errorf("transfer to crashed PU: err = %v, want ErrPUDown", err)
	}
	if _, err := pl.TransferFault(1, 0); !errors.Is(err, ErrPUDown) {
		t.Errorf("transfer from crashed PU: err = %v, want ErrPUDown", err)
	}
	if inflate, err := pl.TransferFault(0, 2); err != nil || inflate != 1 {
		t.Errorf("partition window not yet open: got (%v, %v), want (1, nil)", inflate, err)
	}
	env.At(at(time.Second), func() {
		if _, err := pl.TransferFault(2, 0); !errors.Is(err, ErrPartitioned) {
			t.Errorf("partitioned link (reversed endpoints): err = %v, want ErrPartitioned", err)
		}
	})
	env.Run()
	if inflate, err := pl.TransferFault(3, 0); err != nil || inflate != 4 {
		t.Errorf("inflated link: got (%v, %v), want (4, nil)", inflate, err)
	}
	if inflate, err := pl.TransferFault(0, 4); err != nil || inflate != 1 {
		t.Errorf("healthy link: got (%v, %v), want (1, nil)", inflate, err)
	}
}

func TestProbabilisticFaultsDeterministic(t *testing.T) {
	draw := func(seed uint64) (creates, forks, handlers int) {
		pl := NewPlan(sim.NewEnv(), seed)
		pl.CreateFailProb = 0.3
		pl.ForkFailProb = 0.3
		pl.HandlerFailProb = 0.3
		for i := 0; i < 200; i++ {
			if err := pl.CreateFault(); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("CreateFault err = %v, want ErrInjected", err)
				}
				creates++
			}
			if pl.ForkFault() != nil {
				forks++
			}
			if pl.HandlerFault() != nil {
				handlers++
			}
		}
		return
	}
	c1, f1, h1 := draw(42)
	c2, f2, h2 := draw(42)
	if c1 != c2 || f1 != f2 || h1 != h2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", c1, f1, h1, c2, f2, h2)
	}
	if c1 == 0 || f1 == 0 || h1 == 0 {
		t.Errorf("p=0.3 over 200 rolls injected nothing: (%d,%d,%d)", c1, f1, h1)
	}
	// Zero probability must not draw from the stream at all, so attaching an
	// inert plan cannot perturb anything.
	pl := NewPlan(sim.NewEnv(), 42)
	before := pl.rng
	if err := pl.CreateFault(); err != nil {
		t.Errorf("CreateFault with p=0: %v", err)
	}
	if pl.rng != before {
		t.Error("CreateFault with p=0 advanced the PRNG")
	}
}

func TestParseSpec(t *testing.T) {
	env := sim.NewEnv()
	pl := NewPlan(env, 1)
	spec := "crash=1@2s+500ms, partition=0-2@1s+1s, inflate=0-3*4@0s+10s, create-fail=0.1, fork-fail=0.2, handler-fail=0.3"
	if err := ParseSpec(pl, spec); err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if pl.CreateFailProb != 0.1 || pl.ForkFailProb != 0.2 || pl.HandlerFailProb != 0.3 {
		t.Errorf("probabilities = (%v, %v, %v)", pl.CreateFailProb, pl.ForkFailProb, pl.HandlerFailProb)
	}
	env.At(at(2200*time.Millisecond), func() {
		if !pl.Down(1) {
			t.Error("crash=1@2s+500ms: PU 1 not down at 2.2s")
		}
	})
	env.At(at(1500*time.Millisecond), func() {
		if _, err := pl.TransferFault(0, 2); !errors.Is(err, ErrPartitioned) {
			t.Errorf("partition=0-2@1s+1s at 1.5s: err = %v", err)
		}
		if inflate, _ := pl.TransferFault(0, 3); inflate != 4 {
			t.Errorf("inflate=0-3*4: inflate = %v", inflate)
		}
	})
	env.At(at(3*time.Second), func() {
		if pl.Down(1) {
			t.Error("PU 1 should be back up after the 500ms crash window")
		}
	})
	env.Run()

	// Open-ended crash: no +DUR.
	pl2 := NewPlan(sim.NewEnv(), 1)
	if err := ParseSpec(pl2, "crash=0@0s"); err != nil {
		t.Fatalf("ParseSpec open-ended: %v", err)
	}
	if !pl2.Down(0) {
		t.Error("crash=0@0s should be down forever")
	}

	for _, bad := range []string{"bogus=1", "crash=x@0s", "crash=1", "inflate=0-1@0s", "create-fail=1.5", "partition=0@0s"} {
		if err := ParseSpec(NewPlan(sim.NewEnv(), 1), bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

// TestParseSpecBoundsFactorsAndProbs: an inflation factor must be finite and
// at least 1, a probability a number in [0, 1], a window start at least 0
// and a window duration positive. A huge finite factor is
// a valid (if extreme) degradation and reaches the plan unchanged; hw
// saturates the stretched latency.
func TestParseSpecBoundsFactorsAndProbs(t *testing.T) {
	for _, bad := range []string{
		"inflate=0-1*0@0s", "inflate=0-1*-2@0s", "inflate=0-1*0.5@0s",
		"inflate=0-1*NaN@0s", "inflate=0-1*Inf@0s", "inflate=0-1*1e400@0s",
		"create-fail=NaN", "fork-fail=-0.1", "handler-fail=Inf",
		"crash=1@-1s", "crash=1@1s+-1s", "crash=1@1s+0s", "partition=0-1@0s+-5ms",
	} {
		if err := ParseSpec(NewPlan(sim.NewEnv(), 1), bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an out-of-range value", bad)
		}
	}
	pl := NewPlan(sim.NewEnv(), 1)
	if err := ParseSpec(pl, "inflate=0-1*1e300@0s"); err != nil {
		t.Fatalf("ParseSpec huge finite factor: %v", err)
	}
	if inflate, err := pl.TransferFault(0, 1); err != nil || inflate != 1e300 {
		t.Errorf("inflate=0-1*1e300: got (%v, %v), want (1e300, nil)", inflate, err)
	}
}

// FuzzParseSpec: every spec either fails to parse or builds a plan whose
// inflation factors are finite and at least 1, whose probabilities lie in
// [0, 1] and whose windows end after they start (or never).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"crash=1@2s+500ms, partition=0-2@1s+1s, inflate=0-3*4@0s+10s, create-fail=0.1, fork-fail=0.2, handler-fail=0.3",
		"inflate=0-1*1e300@0s",
		"inflate=0-1*NaN@0s",
		"inflate=0-1*0.5@0s+1s",
		"create-fail=NaN",
		"crash=0@0s",
		"crash=1@1s+-1s",
		",,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl := NewPlan(sim.NewEnv(), 1)
		if err := ParseSpec(pl, spec); err != nil {
			return
		}
		checkWindow := func(w Window) {
			if w.From < 0 || (w.To != 0 && w.To <= w.From) {
				t.Fatalf("%q: window [%v, %v)", spec, w.From, w.To)
			}
		}
		for _, ws := range pl.crashes {
			for _, w := range ws {
				checkWindow(w)
			}
		}
		for link, ws := range pl.links {
			for _, w := range ws {
				checkWindow(w.Window)
				if !w.partition && (math.IsInf(w.inflate, 0) || !(w.inflate >= 1)) {
					t.Fatalf("%q: link %v has inflation factor %v", spec, link, w.inflate)
				}
			}
		}
		for _, p := range []float64{pl.CreateFailProb, pl.ForkFailProb, pl.HandlerFailProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: probability %v out of [0, 1]", spec, p)
			}
		}
	})
}

func TestPUIDNormalization(t *testing.T) {
	if linkKey(3, 1) != (linkKey(1, 3)) {
		t.Error("linkKey not symmetric")
	}
	if linkKey(2, 2) != [2]hw.PUID{2, 2} {
		t.Error("linkKey self-pair mangled")
	}
}
