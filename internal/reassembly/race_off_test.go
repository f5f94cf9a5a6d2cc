//go:build !race

package reassembly

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation makes testing.AllocsPerRun unstable.
const raceEnabled = false
