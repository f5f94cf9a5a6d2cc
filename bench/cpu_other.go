//go:build !unix

package main

import (
	"errors"
	"time"
)

// cpuTime needs getrusage: the traced run's gateway.cpu_ns_per_pkt is
// measured on unix only. The end-to-end run does not use it.
func cpuTime() (time.Duration, error) {
	return 0, errors.New("process CPU time is not available on this platform")
}
