package dpi

import "slices"

// LaneIndex is the index of the lane admission pins t to: laneOf's
// choice, so tests in package dpi_test that place tuples on chosen lanes
// follow the gateway's lane hash instead of a copy of it.
func (g *Gateway) LaneIndex(t FiveTuple) int { return slices.Index(g.lanes, g.laneOf(t)) }
