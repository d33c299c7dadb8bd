package core

import (
	"fmt"
	"testing"
)

// One steady-state periodic cycle — a global phase and a local phase —
// allocates nothing, at one and two workers, with and without
// speculative global phases: the cell workers, their span tables and
// their RNG streams are pooled across phases (each cell's stream is
// split into the worker's own generator), and the proposal memos only
// grow while new shape IDs appear.
func TestPeriodicCycleZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, speculative := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/speculative=%v", workers, speculative), func(t *testing.T) {
				host, _ := testHost(t, 41, 192, 192, 16)
				host.RunN(20000) // populate the scene
				opts := defaultOpts(192, 192)
				opts.GridXM, opts.GridYM = 65, 65 // 3×3 cells, as PartitionGrid 3
				opts.Workers = workers
				opts.Speculative = speculative
				pe, err := NewEngine(host, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer pe.Close()
				cycle := pe.GlobalPhaseIters() + opts.LocalPhaseIters
				pe.Run(200 * cycle) // grow every pooled buffer
				if avg := testing.AllocsPerRun(100, func() { pe.Run(cycle) }); avg != 0 {
					t.Errorf("%v allocs per cycle in steady state, want 0", avg)
				}
			})
		}
	}
}
