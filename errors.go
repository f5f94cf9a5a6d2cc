package dpi

import "errors"

// Sentinel errors. Constructor and control-plane failures wrap one of
// these, so callers branch with errors.Is instead of string matching:
//
//	if errors.Is(err, dpi.ErrStaleGeneration) { /* rebuild and retry */ }
//
// The returned error always carries the specific detail (which option
// conflicted, which generation was stale) in its message; the sentinel is
// the stable, programmatic part.
var (
	// ErrBadConfig marks a configuration rejected by Config.Validate —
	// out-of-range knobs or an unknown Backend name. Compile and
	// NewGateway wrap it for every configuration failure.
	ErrBadConfig = errors.New("dpi: invalid configuration")

	// ErrClosed marks an operation on a Gateway that has been Closed:
	// Ingest, TryIngest, Flush and SwapRules all wrap it once Close has
	// begun.
	ErrClosed = errors.New("dpi: gateway closed")

	// ErrBadPacket marks a packet Ingest and TryIngest refuse: a TCP
	// packet without FlagSeq, whose bytes reassembly cannot place. A
	// refused packet is not ingested and is counted nowhere.
	ErrBadPacket = errors.New("dpi: malformed packet")

	// ErrStaleGeneration marks a SwapRules call whose matcher is not newer
	// than the installed one — same matcher again, or an older compile
	// delivered late (e.g. two reloaders racing). The gateway keeps the
	// installed ruleset; recompile from current rules and retry.
	ErrStaleGeneration = errors.New("dpi: stale ruleset generation")
)
