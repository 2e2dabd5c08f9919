// Command molbench is Molecule's end-to-end benchmark. It drives one of
// three workloads for a fixed wall-clock budget, checks every output, and
// prints its metrics by name and unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Workloads (see README.md for why each exists):
//
//	serve          single-machine moleculed (httpd.Server) over loopback HTTP
//	serve-cluster  httpd.ClusterServer over 4 machines, same generator
//	soak           the seeded loadgen stream through cluster.Boss, no HTTP
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) profiles the same workload and reports the per-layer metrics.
// Every run also writes a record with its raw values, seed and machine stamp
// under -out; -summarize prints quartiles over those records.
//
// Usage, from the repository root:
//
//	bash molbench/run.sh --serve-rate 4500 --workload serve --seed 1 --seconds 20 --trace 0
//	go run ./molbench -workload soak -seed 1 -seconds 10 -trace 1
//	go run ./molbench -summarize .bench_build/runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names and units (checked by TestMetricTablesMatchBenchmark).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the system
// sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"success_rate", "frac"},
	{"peak_rss_mb", "MB"},
	{"virt_mean_ms", "ms"},
	{"virt_rps", "1/s"},
}

// perLayer are the metrics of a traced run. A metric that does not apply
// to a workload reads 0 and the run prints why.
var perLayer = []metricDef{
	{"gen.late_ms", "ms"},
	{"gen.sent", "count"},
	{"net.server_cpu_share", "frac"},
	{"net.client_cpu_share", "frac"},
	{"net.overhead_ms", "ms"},
	{"httpd.handler_ms_p50", "ms"},
	{"httpd.handler_ms_p99", "ms"},
	{"httpd.cpu_share", "frac"},
	{"httpd.status_4xx", "count"},
	{"httpd.status_5xx", "count"},
	{"httpd.lock_wait_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_share", "frac"},
	{"sim.switch_share", "frac"},
	{"sim.parallel_speedup", "x"},
	{"cluster.stolen", "count"},
	{"cluster.queued_peak", "count"},
	{"cluster.served_imbalance", "x"},
	{"cluster.cpu_share", "frac"},
	{"molecule.cold_frac", "frac"},
	{"molecule.virt_p50_ms", "ms"},
	{"molecule.virt_p99_ms", "ms"},
	{"molecule.virt_startup_ms", "ms"},
	{"molecule.virt_exec_ms", "ms"},
	{"molecule.cpu_share", "frac"},
	{"sandbox.cpu_share", "frac"},
	{"lang.cpu_share", "frac"},
	{"mem.cpu_share", "frac"},
	{"localos.cpu_share", "frac"},
	{"hw.cpu_share", "frac"},
	{"xpu.cpu_share", "frac"},
	{"xpu.nipc_msgs_per_req", "count"},
	{"obs.cpu_share", "frac"},
	{"loadgen.cpu_share", "frac"},
	{"workloads.cpu_share", "frac"},
	{"runtime.cpu_share", "frac"},
	{"runtime.gc_share", "frac"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.goroutines_peak", "count"},
	{"trace.overhead_frac", "frac"},
}

// profiledLayers are the layers whose CPU share a traced run reports as
// "<layer>.cpu_share".
var profiledLayers = []string{
	"httpd", "sim", "cluster", "molecule", "sandbox", "lang", "mem", "localos",
	"hw", "xpu", "obs", "loadgen", "workloads", layerRuntime,
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	duration time.Duration
	traced   bool
	rate     float64 // open-loop rate (HTTP workloads)
	profDir  string  // where traced runs keep their profiles ("" = nowhere)
}

// outcome is one workload run's result before it is printed.
type outcome struct {
	attempted, failed int64
	failures          []string           // first few check failures, for the log
	values            map[string]float64 // metric name -> value
	notes             map[string]string  // metric name -> why it is not measured here
	raw               map[string]any     // recorded beside the metrics
	fingerprints      map[string]string  // part of the run -> its deterministic result witness
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}, raw: map[string]any{}}
}

// logFailure keeps the first few check failures for the log.
func (o *outcome) logFailure(reason string) {
	if len(o.failures) < 5 {
		o.failures = append(o.failures, reason)
	}
}

// na marks metrics that a workload does not exercise.
func (o *outcome) na(why string, names ...string) {
	for _, n := range names {
		o.notes[n] = why
	}
}

// setTrace records what a traced interval measured that every workload
// reports the same way: each profiled layer's CPU share, the GC share, the
// goroutine peak, and where the profiles were kept.
func (o *outcome) setTrace(r traceResult) {
	c := r.cpu
	for _, l := range profiledLayers {
		o.values[l+".cpu_share"] = c.share(l)
	}
	o.values["net.server_cpu_share"] = c.share(layerNetServer)
	o.values["net.client_cpu_share"] = c.share(layerNetClient)
	if c.total > 0 {
		o.values["sim.switch_share"] = float64(c.simSwitch) / float64(c.total)
	}
	o.values["runtime.gc_share"] = r.gcShare
	o.values["runtime.goroutines_peak"] = float64(r.goroutinesPeak)
	o.raw["cpu_profile_ns"] = c.byLayer
	if r.profiles != "" {
		o.raw["profiles"] = r.profiles
	}
}

func main() {
	workload := flag.String("workload", "", "workload: serve, serve-cluster or soak")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "wall-clock `seconds` the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	serveRate := flag.Float64("serve-rate", 0, "open-loop `rate` (req/s) for serve; required, BENCHMARK.json fixes it")
	out := flag.String("out", "", "`dir` for run records and fingerprints (empty = keep none)")
	summarize := flag.String("summarize", "", "print quartiles of the run records in `dir` and exit")
	flag.Parse()

	if *summarize != "" {
		if err := printSummary(os.Stdout, *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "molbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *trace == 1, profDir: *out}
	var run func(runConfig) (*outcome, error)
	switch *workload {
	case "serve":
		if *serveRate <= 0 {
			fmt.Fprintln(os.Stderr, "molbench: serve needs -serve-rate (req/s), as BENCHMARK.json gives it")
			os.Exit(2)
		}
		cfg.rate = *serveRate
		run = func(c runConfig) (*outcome, error) { return runHTTP(c, false) }
	case "serve-cluster":
		cfg.rate = clusterRate
		run = func(c runConfig) (*outcome, error) { return runHTTP(c, true) }
	case "soak":
		run = runSoak
	default:
		fmt.Fprintf(os.Stderr, "molbench: unknown -workload %q (serve, serve-cluster, soak)\n", *workload)
		os.Exit(2)
	}

	st := machineStamp()
	oc, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "molbench:", err)
		os.Exit(1)
	}
	if oc.attempted > 0 {
		oc.values["success_rate"] = 1 - float64(oc.failed)/float64(oc.attempted)
	}
	correct := oc.failed == 0
	if *out != "" {
		for _, part := range sortedKeys(oc.fingerprints) {
			if err := checkFingerprint(*out, st.Source, *workload, *seed, part, oc.fingerprints[part]); err != nil {
				correct = false
				oc.failures = append(oc.failures, err.Error())
			}
		}
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Correct: correct, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("molbench %s seed=%d seconds=%d trace=%d  go=%s GOMAXPROCS=%d NumCPU=%d src=%.12s\n",
		*workload, *seed, *seconds, *trace, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.Source)
	for _, d := range defs {
		v := oc.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		line := fmt.Sprintf("  %-26s %14.6g %s", d.name, v, d.unit)
		if why, ok := oc.notes[d.name]; ok {
			line += "  (not measured: " + why + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("  attempted=%d failed=%d error_rate=%.6g\n", oc.attempted, oc.failed, 1-oc.values["success_rate"])
	for _, f := range oc.failures {
		fmt.Println("  FAILED CHECK:", f)
	}
	if *out != "" {
		if err := writeRecord(*out, record{
			Stamp: st, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
			Args: os.Args[1:], Result: res, Values: oc.values, Notes: oc.notes,
			Raw: oc.raw, Fingerprints: oc.fingerprints, Failures: oc.failures,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "molbench: writing run record:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "molbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// peakRSSMB reads the process's peak resident set so far (VmHWM) from
// procfs; where that is unavailable it falls back to the Go runtime's
// mapped memory, which bounds the heap's share of it. Workloads read it
// after a fixed amount of work, before any phase whose work grows with
// the program's speed, so that a faster program is not charged for the
// state of the extra requests it serves.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// checkFingerprint compares the deterministic witness of one part of a run
// with the one recorded by an earlier run of the same source tree, workload
// and seed, recording it if this is the first.
func checkFingerprint(dir, source, workload string, seed int64, part, fp string) error {
	fdir := filepath.Join(dir, "fingerprints")
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(fdir, fmt.Sprintf("%s-seed%d-%s-%.16s.txt", workload, seed, part, source))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, []byte(fp), 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != fp {
		return fmt.Errorf("%s fingerprint differs from an earlier run of this source and seed:\n  now  %s\n  was  %s", part, fp, prev)
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
