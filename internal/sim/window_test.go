package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recordingWindowObserver copies every WindowStats callback into a rendered
// log — sim cannot import obs (layering), so the kernel-side contract is
// pinned with this minimal in-package observer.
type recordingWindowObserver struct {
	rounds int
	events int
	log    strings.Builder
}

func (r *recordingWindowObserver) WindowRound(ws WindowStats) {
	r.rounds++
	for _, n := range ws.Events {
		r.events += n
	}
	// Render immediately: the Events/Flow buffers are reused next round.
	fmt.Fprintf(&r.log, "round=%d h=%d bound=%d delivered=%d events=%v flow=%v\n",
		ws.Round, ws.Horizon, ws.Bound, ws.Delivered, ws.Events, ws.Flow)
}

// runCoupledObserved is runCoupledSharded with a window observer attached.
func runCoupledObserved(domains, workers int) (coupledRun, *recordingWindowObserver) {
	sh := NewSharded(domains)
	sh.LimitLookahead(cLA)
	rec := &recordingWindowObserver{}
	sh.SetWindowObserver(rec)
	sh.EnableTrace()
	var st coupledState
	for m := 0; m < cm; m++ {
		m := m
		dom := sh.Domain(m % domains)
		send := func(p *Proc, k int, delay Duration, fn func()) {
			dst := sh.Domain(k % domains)
			sh.Send(p.Env(), k%domains, delay, func() {
				fn()
				dst.Tracef("recv m%d", k)
			})
		}
		dom.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
	}
	sh.Run(workers)
	return coupledRun{
		fp:    fingerprint(&st, sh.Scheduled()),
		trace: renderTrace(sh.TraceLog()),
		sched: sh.Scheduled(),
	}, rec
}

// TestWindowTelemetryDeterministicAcrossWorkers pins the telemetry half of
// the determinism contract: the full per-round log — horizons, bounds,
// per-domain event counts, delivery counts, flow matrices — is byte-
// identical at every worker count.
func TestWindowTelemetryDeterministicAcrossWorkers(t *testing.T) {
	const domains = 3
	base, baseRec := runCoupledObserved(domains, 1)
	if baseRec.rounds == 0 {
		t.Fatal("windowed run reported no rounds")
	}
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		run, rec := runCoupledObserved(domains, workers)
		if run.fp != base.fp {
			t.Fatalf("workers=%d: fingerprint diverged\n got  %s\n want %s", workers, run.fp, base.fp)
		}
		if rec.log.String() != baseRec.log.String() {
			t.Fatalf("workers=%d: telemetry log diverged\n got:\n%s\nwant:\n%s",
				workers, rec.log.String(), baseRec.log.String())
		}
	}
}

// TestWindowObserverInvisible pins zero observable cost: attaching the
// observer must not change the simulation — fingerprint, trace, and event
// totals all match the unobserved run — and every fired event must be
// accounted to exactly one window.
func TestWindowObserverInvisible(t *testing.T) {
	const domains = 3
	plain := runCoupledSharded(domains, 2)
	observed, rec := runCoupledObserved(domains, 2)
	if observed.fp != plain.fp {
		t.Fatalf("observer changed the fingerprint\n got  %s\n want %s", observed.fp, plain.fp)
	}
	if observed.trace != plain.trace {
		t.Fatal("observer changed the trace log")
	}
	if int64(rec.events) != observed.sched {
		t.Fatalf("window event counts sum to %d, scheduled %d — events escaped the windows",
			rec.events, observed.sched)
	}
}

// TestWindowObserverDetach: SetWindowObserver(nil) stops callbacks; the
// buffers stay allocated for a later re-attach.
func TestWindowObserverDetach(t *testing.T) {
	sh := NewSharded(2)
	sh.LimitLookahead(cLA)
	rec := &recordingWindowObserver{}
	sh.SetWindowObserver(rec)
	sh.SetWindowObserver(nil)
	var st coupledState
	for m := 0; m < cm; m++ {
		m := m
		dom := sh.Domain(m % 2)
		send := func(p *Proc, k int, delay Duration, fn func()) {
			sh.Send(p.Env(), k%2, delay, fn)
		}
		dom.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
	}
	sh.Run(2)
	if rec.rounds != 0 {
		t.Fatalf("detached observer received %d rounds", rec.rounds)
	}
}
