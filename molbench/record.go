package main

// Run records: every run writes its metrics, raw values, seed and a machine
// stamp to one JSON file, so medians and quartiles come from recorded runs
// rather than from whichever run was printed last.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// stamp identifies the machine and the code a run measured.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// Commit is the VCS revision the binary was built from, when the build
	// ran inside a repository; Source hashes the Go sources and go.mod of
	// the tree the run started in, which identifies the code either way.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source_sha256"`
	Start  string `json:"start"`
}

func machineStamp() stamp {
	st := stamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Start: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	st.Source = sourceHash(".")
	return st
}

// sourceHash hashes go.mod and every non-test .go file under root, skipping
// hidden directories and vendor/, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// record is one run, as written to disk.
type record struct {
	Stamp        stamp              `json:"stamp"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        int                `json:"trace"`
	Args         []string           `json:"args"`
	Result       result             `json:"result"`
	Values       map[string]float64 `json:"values"`
	Notes        map[string]string  `json:"notes,omitempty"`
	Raw          map[string]any     `json:"raw,omitempty"`
	Fingerprints map[string]string  `json:"fingerprints,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
}

func writeRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for k, v := range r.Values { // JSON has no NaN or Inf
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.Values, k)
		}
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d-%d.json", r.Workload, r.Trace, r.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printSummary groups the records in dir by workload, trace mode and
// source tree, and prints each metric's quartiles over the group's runs.
// Metrics that repeat exactly for every seed are marked "exact/seed".
func printSummary(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type group struct {
		runs    int
		failed  int
		seeds   map[int64]bool
		vals    map[string][]float64
		perSeed map[string]map[int64]map[float64]bool
		units   map[string]string
		stamp   stamp
	}
	groups := map[string]*group{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%d src=%.12s", r.Workload, r.Trace, r.Stamp.Source)
		g := groups[key]
		if g == nil {
			g = &group{seeds: map[int64]bool{}, vals: map[string][]float64{},
				perSeed: map[string]map[int64]map[float64]bool{}, units: map[string]string{}, stamp: r.Stamp}
			groups[key] = g
		}
		g.runs++
		if !r.Result.Correct {
			g.failed++
		}
		g.seeds[r.Seed] = true
		for name, m := range r.Result.Metrics {
			g.vals[name] = append(g.vals[name], m.Value)
			g.units[name] = m.Unit
			if g.perSeed[name] == nil {
				g.perSeed[name] = map[int64]map[float64]bool{}
			}
			if g.perSeed[name][r.Seed] == nil {
				g.perSeed[name][r.Seed] = map[float64]bool{}
			}
			g.perSeed[name][r.Seed][m.Value] = true
		}
	}
	for _, key := range sortedKeys(groups) {
		g := groups[key]
		fmt.Fprintf(w, "%s: %d runs (%d incorrect), %d seeds; %s GOMAXPROCS=%d NumCPU=%d %s\n",
			key, g.runs, g.failed, len(g.seeds), g.stamp.GoVersion, g.stamp.GOMAXPROCS, g.stamp.NumCPU, g.stamp.CPUModel)
		fmt.Fprintf(w, "  %-26s %12s %12s %12s %12s %12s %8s\n", "metric", "min", "q1", "median", "q3", "max", "iqr/med")
		for _, name := range sortedKeys(g.vals) {
			v := g.vals[name]
			q1, q2, q3 := quartiles(v)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			exact := ""
			if len(v) > len(g.perSeed[name]) {
				exact = "  exact/seed"
				for _, distinct := range g.perSeed[name] {
					if len(distinct) > 1 {
						exact = ""
					}
				}
			}
			fmt.Fprintf(w, "  %-26s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s%s\n",
				name, lo, q1, q2, q3, hi, spread(v), g.units[name], exact)
		}
	}
	return nil
}
