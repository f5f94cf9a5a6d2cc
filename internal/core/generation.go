package core

import "sync/atomic"

// Ruleset generations. Every compiled automaton — each Build; a
// BuildGrouped restamps its machines with one shared number — is stamped
// with a process-unique, monotonically increasing generation number, so a
// dpi.Compile, which is one Build, consumes exactly one. The generation is
// an identity, not a version string: two compiles of byte-identical rules
// get distinct generations, because what the control plane above (hot
// ruleset reload) pins flows to is *this compiled artifact*, not "rules
// that look the same". Registers carry no reference to a machine, so
// whoever holds a Regs records the generation of the machine it resets them
// for — a gateway connection does, through its lane's class (gwClass), and
// the hot-reload audit reads it there.
var generationCounter atomic.Uint64

// nextGeneration issues the next process-unique generation number.
// Generation 0 is never issued; it marks hand-assembled machines that
// bypassed Build.
func nextGeneration() uint64 { return generationCounter.Add(1) }

// Generation reports the machine's compile generation: process-unique,
// monotonically increasing across Builds. Machines built together by
// BuildGrouped share one generation. Zero for hand-assembled machines.
func (m *Machine) Generation() uint64 { return m.generation }
