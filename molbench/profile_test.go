package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Proc).park":            "sim",
		"repro/internal/obs/attrib.Analyze":          "obs",
		"repro/internal/cluster.attemptLocal[...]":   "cluster",
		"repro/internal/httpd.(*Server).drive.func1": "httpd",
		"repro/internal/molecule.New":                "molecule",
		"runtime.mallocgc":                           "",
		"main.(*sut).do":                             "",
		"repro/cmd/moleculed.main":                   "",
		"github.com/x/repro/internal/sim.(*Env).Run": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Stacks are innermost frame first, as pprof stores them.
var (
	stackSimHandoff = []string{
		"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1",
		"repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Sleep",
		"repro/internal/molecule.(*Runtime).dispatch", "repro/internal/sim.(*Env).Spawn.func1",
	}
	stackSimHeap = []string{
		"container/heap.Push", "repro/internal/sim.(*Env).schedule", "repro/internal/sim.(*Proc).Sleep",
		"repro/internal/molecule.(*Runtime).dispatch",
	}
	stackMoleculeAlloc = []string{
		"runtime.mallocgc", "runtime.newobject", "repro/internal/molecule.(*Runtime).dispatch",
		"repro/internal/sim.(*Env).Spawn.func1",
	}
	stackGC         = []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}
	stackServerRead = []string{
		"internal/runtime/syscall.Syscall6", "syscall.read", "net.(*netFD).Read",
		"net/http.(*connReader).Read", "bufio.(*Reader).fill", "net/http.(*conn).readRequest", "net/http.(*conn).serve",
	}
	stackHandler = []string{
		"encoding/json.(*encodeState).marshal", "encoding/json.(*Encoder).Encode", "repro/internal/httpd.writeJSON",
		"repro/internal/httpd.(*Server).handleInvoke", "net/http.(*ServeMux).ServeHTTP",
		"main.(*handlerTimer).ServeHTTP", "net/http.serverHandler.ServeHTTP", "net/http.(*conn).serve",
	}
	stackMux       = []string{"net/http.(*ServeMux).findHandler", "net/http.(*ServeMux).ServeHTTP", "net/http.serverHandler.ServeHTTP", "net/http.(*conn).serve"}
	stackClient    = []string{"encoding/json.Unmarshal", "main.(*checker).check", "main.(*sut).do", "main.(*sut).closedLoop.func1"}
	stackTransport = []string{"bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop"}
	stackSched     = []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}
)

func TestAttributeChargesInnermostModule(t *testing.T) {
	for _, c := range []struct {
		name      string
		frames    []string
		want      string
		simSwitch bool
	}{
		{"channel handoff under sim", stackSimHandoff, "sim", true},
		{"event heap under sim", stackSimHeap, "sim", false},
		{"allocation charged to its caller", stackMoleculeAlloc, "molecule", false},
		{"GC worker", stackGC, layerRuntime, false},
		{"server connection read", stackServerRead, layerNetServer, false},
		{"handler work is the server's module", stackHandler, "httpd", false},
		{"request routing", stackMux, layerNetServer, false},
		{"benchmark's own checks", stackClient, layerNetClient, false},
		{"client transport", stackTransport, layerNetClient, false},
		{"scheduler with no user frames", stackSched, layerRuntime, false},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
		if got := isSimSwitch(c.frames); got != c.simSwitch {
			t.Errorf("%s: isSimSwitch = %v, want %v", c.name, got, c.simSwitch)
		}
	}
}

func TestSplitCPU(t *testing.T) {
	c := splitCPU([]sample{
		{stackSimHandoff, 30},
		{stackSimHeap, 10},
		{stackMoleculeAlloc, 20},
		{stackGC, 25},
		{stackServerRead, 10},
		{stackClient, 5},
	})
	if c.total != 100 {
		t.Fatalf("total = %d, want 100", c.total)
	}
	for layer, want := range map[string]float64{
		"sim": 0.4, "molecule": 0.2, layerRuntime: 0.25, layerNetServer: 0.1, layerNetClient: 0.05, "httpd": 0,
	} {
		if got := c.share(layer); got != want {
			t.Errorf("share(%s) = %v, want %v", layer, got, want)
		}
	}
	if c.simSwitch != 30 {
		t.Errorf("simSwitch = %d, want 30", c.simSwitch)
	}
	if (cpuSplit{}).share("sim") != 0 {
		t.Error("empty profile has a share")
	}
}

// tracesText is `go tool pprof -traces -unit=ns` output in the shape the
// Go 1.24 toolchain prints: a header, then one block per sample. The
// second sample carries a label line, the third has a value narrower than
// its column.
const tracesText = `File: molbench
Build ID: 0123abcd
Type: cpu
Time: 2026-01-02 03:04:05 UTC
Duration: 2.01s, Total samples = 40ms ( 1.99%)
-----------+-------------------------------------------------------
30000000ns   runtime.chanrecv (inline)
             repro/internal/sim.(*Proc).park
             repro/internal/molecule.(*Runtime).dispatch
-----------+-------------------------------------------------------
     phase:  closed
10000000ns   repro/internal/molecule.(*Runtime).dispatch
-----------+-------------------------------------------------------
     500ns   runtime.returns
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	samples, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Proc).park", "repro/internal/molecule.(*Runtime).dispatch"}, 30000000},
		{[]string{"repro/internal/molecule.(*Runtime).dispatch"}, 10000000},
		{[]string{"runtime.returns"}, 500},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parsed %+v, want %+v", samples, want)
	}
	if _, err := parseTraces("File: x\nType: cpu\n"); err == nil {
		t.Error("text with no samples section was not reported")
	}
	bad := "-----------+---\n12.5ms   runtime.mallocgc\n-----------+---\n"
	if _, err := parseTraces(bad); err == nil {
		t.Error("a value not in nanoseconds was not reported")
	}
}

var testMu sync.Mutex

// contendedLock blocks on testMu until the holder lets go.
func contendedLock() {
	testMu.Lock()
	testMu.Unlock()
}

// TestLockWaitFromRuntimeBlockProfile writes a real block profile and
// reads it through `go tool pprof`, so the parser and the Lock-caller
// match follow the toolchain's actual output.
func TestLockWaitFromRuntimeBlockProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run pprof:", err)
	}
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	testMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		contendedLock()
	}()
	// Let go only once the waiter is parked on the lock, so that the
	// runtime records a wait however late the goroutine started.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("[sync.Mutex.Lock")) {
			break
		}
		if time.Now().After(deadline) {
			testMu.Unlock()
			t.Fatal("the waiter never blocked on the lock")
		}
		time.Sleep(time.Millisecond)
	}
	testMu.Unlock()
	<-done

	path := filepath.Join(t.TempDir(), "block.pprof")
	if err := writeProfile(path, "block"); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path, "delay")
	if err != nil {
		t.Fatal(err)
	}
	holder := runtime.FuncForPC(reflect.ValueOf(contendedLock).Pointer()).Name()
	if wait := lockWait(samples, holder); wait <= 0 {
		t.Fatalf("no lock wait charged to %s in %d samples", holder, len(samples))
	}
	if other := lockWait(samples, "repro/internal/httpd.(*Server).drive"); other != 0 {
		t.Errorf("wait charged to a function that never locked: %v", time.Duration(other))
	}
}

func TestPromSum(t *testing.T) {
	text := `# HELP xpu_nipc_messages_total x
# TYPE xpu_nipc_messages_total counter
xpu_nipc_messages_total{link="0->1"} 3
xpu_nipc_messages_total{link="1->0"} 4
xpu_nipc_messages_total_extra 100
xpu_nipc_bytes_total{link="0->1"} 999
molecule_nipc_commands_total 7
`
	if got := promSum(text, "xpu_nipc_messages_total"); got != 7 {
		t.Errorf("promSum = %v, want 7", got)
	}
	if got := promSum(text, "molecule_nipc_commands_total"); got != 7 {
		t.Errorf("promSum unlabelled = %v, want 7", got)
	}
}

func TestMakeMix(t *testing.T) {
	a, b := makeMix(7, 20000, false), makeMix(7, 20000, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different mixes")
	}
	if reflect.DeepEqual(a, makeMix(8, 20000, false)) {
		t.Fatal("different seeds gave the same mix")
	}
	count := map[reqKind]float64{}
	for _, r := range a {
		count[r.kind]++
	}
	for kind, want := range map[reqKind]float64{
		kindChain: chainShare, kindFPGA: fpgaShare, kindBody: bodyShare,
		kindInvoke: 1 - chainShare - fpgaShare - bodyShare,
	} {
		if got := count[kind] / float64(len(a)); got < want*0.85 || got > want*1.15 {
			t.Errorf("kind %d share = %.3f, want about %.3f", kind, got, want)
		}
	}
	for _, r := range makeMix(7, 5000, true) {
		if r.kind == kindFPGA || r.kind == kindBody {
			t.Fatalf("cluster mix has %+v", r)
		}
	}
}

// TestMetricTablesMatchBenchmark keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"serve", "soak"}) {
		t.Errorf("workloads = %v", names)
	}
}
