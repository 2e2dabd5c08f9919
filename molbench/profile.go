package main

// Profile reading and per-layer attribution. The benchmark writes its
// profiles to files and reads their call stacks back through the Go
// toolchain's `go tool pprof -traces`, which prints one block per sample.

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// sample is one profile sample: its stack as function names, innermost
// (leaf) first, with inlined calls expanded, and its value (CPU or delay
// nanoseconds).
type sample struct {
	frames []string
	value  int64
}

// readProfile returns the samples of the profile file at path, valued in
// nanoseconds of the given sample type ("cpu" for CPU profiles, "delay"
// for block profiles).
func readProfile(path, sampleType string) ([]sample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none",
		"-sample_index="+sampleType, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

const tracesSeparator = "-----------+"

// parseTraces reads the output of `go tool pprof -traces -unit=ns`: a
// header, then one block per sample between separator lines. A block's
// first line holds the value ("1230000ns") and the innermost frame, each
// further line one caller; inlined frames carry an "(inline)" mark, and
// label lines ("key:  value") are skipped.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	var cur *sample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, tracesSeparator) {
			if cur != nil && len(cur.frames) > 0 {
				out = append(out, *cur)
			}
			cur = &sample{}
			continue
		}
		f := strings.Fields(line)
		if cur == nil || len(f) == 0 || strings.HasSuffix(f[0], ":") {
			continue // header, blank or label line
		}
		if len(cur.frames) == 0 && f[0][0] >= '0' && f[0][0] <= '9' {
			// Function names never start with a digit; values always do.
			v, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			cur.value, f = v, f[1:]
		}
		cur.frames = append(cur.frames, f[0])
	}
	if cur == nil {
		return nil, fmt.Errorf("pprof traces: no samples section")
	}
	return out, nil
}

// Layer names for samples outside the repository's own packages.
const (
	layerRuntime   = "runtime"
	layerNetServer = "net.server"
	layerNetClient = "net.client"
)

const internalPrefix = "repro/internal/"

// moduleOf returns the internal module a function belongs to ("sim" for
// repro/internal/sim.(*Proc).park, "obs" for repro/internal/obs/attrib.F),
// or "" for functions outside repro/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribute names the layer a sample's cost belongs to. The innermost
// repro/internal frame wins, so runtime work such as channel handoffs,
// allocation and GC assists is charged to the module that caused it. A
// sample with no such frame goes to GC workers and the scheduler
// (runtime), to net/http's server side (connection goroutines), or to the
// client side (the benchmark's own goroutines and net/http's transport).
func attribute(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	client := false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"):
			return layerRuntime
		case strings.HasPrefix(f, "net/http.(*conn)."), strings.HasPrefix(f, "net/http.(*Server)."),
			strings.HasPrefix(f, "net/http.serverHandler."), strings.HasPrefix(f, "net/http.(*response)."):
			return layerNetServer
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "net/http.(*persistConn)."),
			strings.HasPrefix(f, "net/http.(*Transport)."), strings.HasPrefix(f, "net/http.(*Client)."),
			strings.HasPrefix(f, "net/http.send"):
			client = true
		}
	}
	if client {
		return layerNetClient
	}
	return layerRuntime
}

// switchFrames are the runtime functions of a goroutine park or resume.
var switchFrames = []string{
	"runtime.gopark", "runtime.goready", "runtime.mcall", "runtime.park_m",
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.ready",
	"runtime.schedule", "runtime.casgstatus", "runtime.wakep",
}

// isSimSwitch reports whether a sample was spent parking or resuming a
// goroutine on behalf of the sim kernel: its innermost internal frame is in
// sim and some frame leafward of it is a scheduler or channel primitive.
func isSimSwitch(frames []string) bool {
	switching := false
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return switching && m == "sim"
		}
		for _, s := range switchFrames {
			if f == s || strings.HasPrefix(f, s+".") {
				switching = true
			}
		}
	}
	return false
}

// cpuSplit is a CPU profile folded by layer.
type cpuSplit struct {
	total     int64
	byLayer   map[string]int64
	simSwitch int64
}

func splitCPU(samples []sample) cpuSplit {
	c := cpuSplit{byLayer: map[string]int64{}}
	for _, s := range samples {
		layer := attribute(s.frames)
		c.total += s.value
		c.byLayer[layer] += s.value
		if isSimSwitch(s.frames) {
			c.simSwitch += s.value
		}
	}
	return c
}

// share is a layer's fraction of all profiled CPU time.
func (c cpuSplit) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// lockWait sums block-profile delay spent acquiring a sync.Mutex from
// within one of the given functions (the servers' request lock).
func lockWait(samples []sample, holders ...string) int64 {
	var sum int64
	for _, s := range samples {
		locking := false
		for _, f := range s.frames {
			if strings.HasPrefix(f, "sync.(*Mutex).Lock") || strings.HasPrefix(f, "internal/sync.(*Mutex).Lock") {
				locking = true
				continue
			}
			if !locking || strings.HasPrefix(f, "sync.") || strings.HasPrefix(f, "runtime.") ||
				strings.HasPrefix(f, "internal/sync.") {
				continue
			}
			for _, h := range holders {
				if f == h {
					sum += s.value
				}
			}
			break // only the Lock caller counts
		}
	}
	return sum
}
