//go:build race

package core

// raceEnabled gates allocation-count assertions, which the race detector
// makes unstable, and narrows the exhaustive proofs: to 634 strings, to a
// 60-string machine and 8 payloads in TestScanMatchesDFA and to 8 machines in
// TestPrefilterSupersetProperty.
const raceEnabled = true
