package main

import (
	"slices"
	"testing"

	"repro/internal/loadgen"
)

// A soak run's figures weigh every measured stream once, however many
// rounds of it fit, and take each stream's medians so that one stalled
// round moves nothing.
func TestSoakRunMediansPerStream(t *testing.T) {
	s := newSoakRun(newOutcome(), 1)
	s.firsts[0] = &soakRound{stats: &loadgen.Stats{Requests: 1000}}
	s.firsts[1] = &soakRound{stats: &loadgen.Stats{Requests: 3000}}
	// Stream 0: three rounds, the middle one stalled. Stream 1: one round.
	s.walls[0] = []float64{1.0, 9.0, 1.0}
	s.paces[0] = [][]float64{{2, 4, 6}, {50, 40, 6}, {2, 4, 6}}
	s.walls[1] = []float64{2.0}
	s.paces[1] = [][]float64{{3, 5}}

	if got, want := s.throughput(), 4000.0/3.0; got != want {
		t.Errorf("throughput = %v, want %v (requests over summed median walls)", got, want)
	}
	if got, want := s.paceSlices(), []float64{2, 4, 6, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("paceSlices = %v, want %v", got, want)
	}
	if got := s.measuredSeconds(); got != 13 {
		t.Errorf("measuredSeconds = %v, want 13", got)
	}
}
