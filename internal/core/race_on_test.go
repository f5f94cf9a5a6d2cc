//go:build race

package core

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation makes testing.AllocsPerRun unstable.
const raceEnabled = true
