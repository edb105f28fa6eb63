package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinSink keeps the compiler from removing the loop.
var spinSink atomic.Uint64

// spinUp keeps every processor busy until the host runs them at full
// speed. On the shared 2-vCPU hosts this benchmark targets, the first
// second of two busy processors after an idle spell runs at about half
// speed (measured: 285 ms per iteration of a fixed loop on both, then
// 142 ms from the fifth iteration on), and a pass that starts cold
// charges that to set-up time. It returns once five iterations in a row
// are within 10% of the fastest seen, or after four seconds.
func spinUp() {
	const iters = 30_000_000 // ≈40 ms per iteration at full speed
	best := time.Duration(1<<63 - 1)
	steady := 0
	for start := time.Now(); steady < 5 && time.Since(start) < 4*time.Second; {
		var wg sync.WaitGroup
		t := time.Now()
		for p := 0; p < runtime.GOMAXPROCS(0); p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(1)
				for i := 0; i < iters; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				spinSink.Store(x)
			}()
		}
		wg.Wait()
		d := time.Since(t)
		if d < best {
			best = d
		}
		if d <= best+best/10 {
			steady++
		} else {
			steady = 0
		}
	}
}
