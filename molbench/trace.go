package main

// Tracing from outside the program: a CPU profile and, on the HTTP
// workloads, a block profile that the benchmark starts itself, plus the
// Go runtime's own counters and a goroutine-count sampler. None of it
// needs hooks inside the system under test.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

const blockRateNs = 10000

type tracer struct {
	dir   string
	keep  bool // keep the profile files in dir
	cpu   *os.File
	block bool
	stop  chan struct{}
	done  chan struct{}
	peak  atomic.Int64
	m0    []metrics.Sample
}

// traceResult is what one traced interval measured.
type traceResult struct {
	cpu            cpuSplit
	block          []sample
	goroutinesPeak int64
	gcShare        float64 // GC CPU over all non-idle CPU
	allocBytes     float64 // heap bytes allocated
	profiles       string  // directory holding the profile files, if kept
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func metricFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// startTrace starts the CPU profile (and the block profile when block is
// set) and the goroutine sampler. The profiles are written to files in a
// new directory under dir, kept there for `go tool pprof`; with dir empty
// they go to a temporary directory that finish removes. finish must be
// called exactly once.
func startTrace(block bool, dir string) (*tracer, error) {
	t := &tracer{block: block, keep: dir != "", stop: make(chan struct{}), done: make(chan struct{})}
	if t.keep {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if t.dir, err = os.MkdirTemp(dir, "profiles-"); err != nil {
		return nil, err
	}
	if t.cpu, err = os.Create(filepath.Join(t.dir, "cpu.pprof")); err != nil {
		return nil, err
	}
	t.m0 = readRuntime()
	if err := pprof.StartCPUProfile(t.cpu); err != nil {
		t.cpu.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if block {
		// Waits of 10µs or more are all recorded; shorter ones are sampled
		// and scaled up by the runtime, which keeps the profile's cost low.
		runtime.SetBlockProfileRate(blockRateNs)
	}
	t.peak.Store(int64(runtime.NumGoroutine()))
	go func() {
		defer close(t.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > t.peak.Load() {
					t.peak.Store(n)
				}
			}
		}
	}()
	return t, nil
}

func (t *tracer) finish() (traceResult, error) {
	pprof.StopCPUProfile()
	close(t.stop)
	<-t.done
	m1 := readRuntime()
	var r traceResult
	r.goroutinesPeak = t.peak.Load()
	d := func(i int) float64 { return metricFloat(m1[i]) - metricFloat(t.m0[i]) }
	if busy := d(1) - d(2); busy > 0 {
		r.gcShare = d(0) / busy
	}
	r.allocBytes = d(3)
	if t.keep {
		r.profiles = t.dir
	} else {
		defer os.RemoveAll(t.dir)
	}
	if t.block {
		runtime.SetBlockProfileRate(0)
		path := filepath.Join(t.dir, "block.pprof")
		if err := writeProfile(path, "block"); err != nil {
			return r, fmt.Errorf("block profile: %w", err)
		}
		var err error
		if r.block, err = readProfile(path, "delay"); err != nil {
			return r, err
		}
	}
	if err := t.cpu.Close(); err != nil {
		return r, fmt.Errorf("cpu profile: %w", err)
	}
	samples, err := readProfile(t.cpu.Name(), "cpu")
	if err != nil {
		return r, err
	}
	r.cpu = splitCPU(samples)
	return r, nil
}

// writeProfile writes the named runtime profile to path.
func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
