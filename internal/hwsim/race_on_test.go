//go:build race

package hwsim

// raceEnabled narrows the exhaustive image proof to its smallest image:
// the race detector makes every engine step an order of magnitude slower.
const raceEnabled = true
