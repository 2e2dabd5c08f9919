package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestClusterSoakDeterministic re-runs one sweep point at several kernel
// worker counts; ClusterSoak itself fails the run unless every count
// produces the byte-identical fingerprint.
func TestClusterSoakDeterministic(t *testing.T) {
	r, err := ClusterSoak(2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 {
		t.Fatal("soak produced no requests")
	}
	if r.Errors != 0 {
		t.Fatalf("soak produced %d errors", r.Errors)
	}
}

// TestClusterSoakSweepScales pins the headline scaling claim: the checked-in
// sweep config must reach at least 2.5x virtual-time throughput at four
// machines versus one, and every point's fingerprint must equal the one
// committed in BENCH_cluster.json. Everything here is virtual-time
// arithmetic, so the assertions are exact and reproducible, not a
// wall-clock flake.
func TestClusterSoakSweepScales(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	data, err := os.ReadFile("../../BENCH_cluster.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Points []ClusterSoakResult `json:"points"`
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	want := make(map[int]string)
	for _, p := range committed.Points {
		want[p.Machines] = p.Fingerprint
	}
	res, err := ClusterSoakSweep([]int{1, 2, 4}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Fingerprint != want[r.Machines] {
			t.Errorf("machines=%d fingerprint differs from BENCH_cluster.json:\n  got  %s\n  want %s", r.Machines, r.Fingerprint, want[r.Machines])
		}
	}
	last := res[len(res)-1]
	if last.Speedup < 2.5 {
		t.Fatalf("4-machine speedup = %.2f, want >= 2.5", last.Speedup)
	}
	for _, r := range res {
		if r.Errors != 0 {
			t.Fatalf("machines=%d: %d errors", r.Machines, r.Errors)
		}
	}
}
