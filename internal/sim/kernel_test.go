package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

const wantBoom = `sim: process "boom" panicked: kaboom`

// catch runs f and returns the value it panicked with (nil if none).
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestProcPanicSurfacesToRunCaller: a process panic re-raises, named, on the
// goroutine that drives the scheduler, with the kernel's running-process
// state restored, at every worker count of a sharded group. Two domains
// panic in the same window; the lower index wins at every worker count.
func TestProcPanicSurfacesToRunCaller(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		env := NewEnv()
		env.Spawn("boom", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("kaboom")
		})
		if r := catch(func() { env.Run() }); r != wantBoom {
			t.Fatalf("recovered %v, want %q", r, wantBoom)
		}
		if env.running != nil {
			t.Fatalf("running = %q after the panic, want nil", env.running.name)
		}
		if env.LiveProcs() != 0 {
			t.Fatalf("LiveProcs = %d after the panic, want 0", env.LiveProcs())
		}
	})
	t.Run("RunUntil", func(t *testing.T) {
		env := NewEnv()
		env.Spawn("boom", func(p *Proc) { panic("kaboom") })
		if r := catch(func() { env.RunUntil(Time(time.Second)) }); r != wantBoom {
			t.Fatalf("recovered %v, want %q", r, wantBoom)
		}
		if env.running != nil || env.limit != 0 {
			t.Fatalf("running = %v, limit = %v after the panic, want nil, 0", env.running, env.limit)
		}
	})
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("Sharded/workers=%d", workers), func(t *testing.T) {
			sh := NewSharded(4)
			sh.LimitLookahead(time.Millisecond)
			for i := 0; i < sh.Domains(); i++ {
				name := "calm"
				if i == 1 || i == 3 {
					name = fmt.Sprintf("boom%d", i)
				}
				sh.Domain(i).Spawn(name, func(p *Proc) {
					p.Sleep(100 * time.Microsecond)
					if name != "calm" {
						panic("kaboom")
					}
				})
			}
			want := `sim: process "boom1" panicked: kaboom`
			if r := catch(func() { sh.Run(workers) }); r != want {
				t.Fatalf("recovered %v, want %q", r, want)
			}
			for i := 0; i < sh.Domains(); i++ {
				if d := sh.Domain(i); d.running != nil || d.windowBound != 0 {
					t.Fatalf("domain %d: running = %v, windowBound = %v after the panic", i, d.running, d.windowBound)
				}
			}
		})
	}
}

// spawnHolder spawns a process whose body alone captures a finalized
// object, and reports through collected when the GC frees that object.
func spawnHolder(env *Env, collected *atomic.Bool) *Proc {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { collected.Store(true) })
	return env.Spawn("holder", func(p *Proc) {
		p.Sleep(time.Millisecond)
		obj[0]++
	})
}

// TestExitedProcReleasesBody: an exited *Proc — which e.spawned and waiter
// lists may keep for a while — must not keep its body closure, and with it
// everything the body captured, alive.
func TestExitedProcReleasesBody(t *testing.T) {
	env := NewEnv()
	var collected atomic.Bool
	p := spawnHolder(env, &collected)
	env.Run()
	if !p.exited {
		t.Fatal("holder did not exit")
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !collected.Load() {
		t.Fatal("an object captured only by an exited process's body was never collected")
	}
	runtime.KeepAlive(p)
}

// TestEventHeapOrder: interleaved pushes and pops of random (t, seq) events,
// with many ties in t, come out in the order of a sorted reference.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var ref []*event
	var seq int64
	popCheck := func() {
		sort.Slice(ref, func(i, j int) bool { return before(ref[i], ref[j]) })
		got, want := h.pop(), ref[0]
		ref = ref[1:]
		if got != want {
			t.Fatalf("pop = (%d, %d), want (%d, %d)", got.t, got.seq, want.t, want.seq)
		}
	}
	for i := 0; i < 20000; i++ {
		if len(h) == 0 || rng.Intn(5) < 3 {
			seq++
			// Scramble the seq's high bits (the low ones stay unique) so
			// tied times meet both seq orders, not only ascending pushes.
			ev := &event{t: Time(rng.Int63n(64)), seq: seq ^ int64(rng.Intn(4))<<40}
			h.push(ev)
			ref = append(ref, ev)
		} else {
			popCheck()
		}
		if len(h) != len(ref) {
			t.Fatalf("heap holds %d events, reference %d", len(h), len(ref))
		}
	}
	for len(h) > 0 {
		popCheck()
	}
}

// TestEventHeapZeroAlloc: once the backing array has grown, push and pop
// allocate nothing.
func TestEventHeapZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	evs := make([]*event, 256)
	for i := range evs {
		evs[i] = &event{t: Time(rng.Int63n(1000)), seq: int64(i)}
	}
	h := make(eventHeap, 0, len(evs))
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range evs {
			h.push(ev)
		}
		for len(h) > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocated %v times per run, want 0", allocs)
	}
}
