// Package sched provides the task-scheduling substrate used by the
// parallel engines. ForEach balances uneven tasks dynamically over a
// shared queue, Pool bounds how many tasks run at once, and LPTAssign
// gives the static longest-processing-time assignment. Together they are
// the §VI task scheduler: "the processor dead-time that results can be
// reclaimed through the use of a task scheduler, allowing more
// partitions than there are available processors to be employed". Gang
// is the persistent-worker barrier a periodic engine runs both its local
// phases and its streamed speculative global phases on.
package sched

import (
	"sort"
	"sync"
)

// ForEach runs fn(i) for i in [0, n) on up to `workers` goroutines,
// pulling indices from a shared queue so that uneven task costs balance
// dynamically. It blocks until every call returns. workers <= 1 runs
// inline.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	queue := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// LPTAssign distributes tasks with the given costs over `workers` bins
// using the longest-processing-time heuristic: sort descending, place
// each task on the currently least-loaded bin. The result maps each bin
// to the task indices assigned to it. LPT's makespan is at most 4/3 of
// optimal.
func LPTAssign(costs []float64, workers int) [][]int {
	if workers < 1 {
		panic("sched: LPTAssign needs at least one worker")
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })

	bins := make([][]int, workers)
	loads := make([]float64, workers)
	for _, task := range order {
		best := 0
		for b := 1; b < workers; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		bins[best] = append(bins[best], task)
		loads[best] += costs[task]
	}
	return bins
}

// Makespan returns the maximum bin load of an assignment.
func Makespan(costs []float64, bins [][]int) float64 {
	worst := 0.0
	for _, bin := range bins {
		load := 0.0
		for _, t := range bin {
			load += costs[t]
		}
		if load > worst {
			worst = load
		}
	}
	return worst
}
