//go:build race

package core

// raceEnabled gates allocation-count assertions, which the race detector
// makes unstable, and narrows the exhaustive proofs to 634 strings.
const raceEnabled = true
