package parmcmc

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// Two speculative detections side by side, each with a two-lane gang,
// oversubscribe one or two cores. The executor's lanes must then wait by
// parking, not by spinning on the cores their peers need: each
// detection has to finish within 4× a solo single-lane run of the same
// chain. A stream whose waits only spin takes over 15× here.
func TestConcurrentSpeculativeDetectionsFinish(t *testing.T) {
	const w, h = 128, 128
	pix, _ := GenerateScene(SceneSpec{W: w, H: h, Count: 10, MeanRadius: 7, Noise: 0.08, Seed: 31})
	opt := Options{Strategy: PeriodicSpeculative, MeanRadius: 7, Iterations: 20000, Seed: 5}
	detect := func(workers int) time.Duration {
		o := opt
		o.Workers = workers
		t0 := time.Now()
		if _, err := Detect(pix, w, h, o); err != nil {
			t.Error(err)
		}
		return time.Since(t0)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		solos := []time.Duration{detect(1), detect(1), detect(1)}
		sort.Slice(solos, func(i, j int) bool { return solos[i] < solos[j] })
		solo := solos[1]
		// A load spike on a shared host can stall one pair; a second
		// attempt must then come in under the bound.
		var worst time.Duration
		for attempt := 0; attempt < 2; attempt++ {
			var pair [2]time.Duration
			var wg sync.WaitGroup
			for i := range pair {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					pair[i] = detect(2)
				}(i)
			}
			wg.Wait()
			if worst = max(pair[0], pair[1]); worst <= 4*solo {
				break
			}
		}
		t.Logf("GOMAXPROCS=%d: solo single-lane %v, worst of a concurrent pair %v", procs, solo, worst)
		if worst > 4*solo {
			t.Errorf("GOMAXPROCS=%d: a detection beside another took %v, over 4× the solo single-lane %v", procs, worst, solo)
		}
	}
}
