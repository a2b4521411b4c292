package ocean

import (
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// oceanAllocsPerStep bounds the allocations each added superstep may
// make on a whole p=2 shm machine. The ghost exchange reuses its
// per-destination writers, looks fields up in a slice and keeps one
// destination set, and the max all-reduce encodes on the stack, so a
// superstep allocates nothing in steady state; the bound leaves room
// for runtime noise.
const oceanAllocsPerStep = 0.1

// TestOceanAllocsFlatInSteps requires the allocation count of a
// Parallel run to stay flat as the number of timesteps doubles: machine
// and slab set-up is paid once, never per superstep.
func TestOceanAllocsFlatInSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	measure := func(steps int) (allocs float64, supersteps int) {
		cfg := core.Config{P: 2, Transport: transport.ShmTransport{}}
		run := func() {
			_, st, err := Parallel(cfg, Config{Size: 66, Steps: steps})
			if err != nil {
				t.Fatal(err)
			}
			supersteps = st.S()
		}
		run() // warm the transport pools before measuring
		return testing.AllocsPerRun(5, run), supersteps
	}
	a4, s4 := measure(4)
	a8, s8 := measure(8)
	perStep := (a8 - a4) / float64(s8-s4)
	t.Logf("p=2 shm size 66: %.0f allocs over %d supersteps (4 steps), %.0f over %d (8 steps): %.3f per added superstep",
		a4, s4, a8, s8, perStep)
	if perStep >= oceanAllocsPerStep {
		t.Errorf("ocean alloc gate: %.3f allocs per added superstep, want < %.1f — a per-superstep allocation crept into the solver or its exchange",
			perStep, oceanAllocsPerStep)
	}
}
