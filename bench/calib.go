package main

// The calibration loop: a fixed table walk that imports nothing from the
// repository, so its speed moves only when the host does. It runs between
// measured windows on as many goroutines as the gateway keeps busy; a
// window whose goodput fell together with the calibration beside it was
// slowed by the host, not by the code. Reported, never gated on.

import (
	"sync"
	"time"
)

const (
	calibTable      = 1 << 16 // 256 KiB of uint32: L2-resident like the kernel tables
	calibGoroutines = 2
)

var calibNext = func() []uint32 {
	t := make([]uint32, calibTable)
	x := uint32(2010)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x >> 16
	}
	return t
}()

// calibrate walks the table for d on calibGoroutines goroutines — one
// dependent load per step, a byte of "payload" per load, like an automaton
// transition — and returns the combined rate in Gbit/s.
func calibrate(d time.Duration) float64 {
	var wg sync.WaitGroup
	steps := make([]int64, calibGoroutines)
	start := time.Now()
	for g := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := uint32(g)
			var n int64
			for time.Since(start) < d {
				for i := 0; i < 1<<14; i++ {
					s = calibNext[(s^uint32(i))&(calibTable-1)]
				}
				n += 1 << 14
			}
			steps[g] = n + int64(s&1) // keep s live
		}()
	}
	wg.Wait()
	var total int64
	for _, n := range steps {
		total += n
	}
	return float64(total) * 8 / time.Since(start).Seconds() / 1e9
}
