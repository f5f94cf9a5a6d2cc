// Package flowtable maps 5-tuples to per-flow scan state — the
// demultiplexing layer an edge-gateway NIDS needs in front of the string
// matcher. The paper's deployment target scans millions of concurrent
// connections against one shared automaton (§I, §IV.B); the automaton is
// immutable and shared, so the only per-connection cost is the flow's
// scanner registers, and this package owns their lifecycle: lookup-or-create
// keyed by the 5-tuple, LRU tracking of last activity on a logical clock,
// and eviction (capacity and idle) that hands state back to its owner.
//
// A Table is single-writer: exactly one goroutine — its owner — may call its
// methods, as each of the paper's engines owns the registers of the packet it
// holds. The gateway gives every scan lane its own table, and since a tuple's
// packets all land on one lane, nothing is shared: a lookup takes no lock and
// the clock and counters are plain words. Ownership may be handed from one
// goroutine to another across a synchronisation point (the gateway's control
// plane walks the lane tables while the lanes are drained). Has is the one
// method any goroutine may call at any time; the owner pays for it with a
// mutex around index writes only — once per flow boundary, never per packet.
//
// A flow is one heap object: its entry, which holds the flow record F by
// value beside the key, the LRU links and the last-activity tick. Entries are
// allocated one by one and never move, so the *F a callback receives stays
// valid for the flow's life. The index is a power-of-two array of entry
// pointers probed linearly — one 8-byte slot per flow at up to 3/4 load —
// with Robin Hood insertion and deletion by backward shift, so probe runs
// stay short and need no tombstones. It hashes the
// tuple with hash/maphash under a seed drawn per table, never with
// nids.FiveTuple.Hash64: the gateway pins tuples to lanes by Hash64, so every
// tuple in one lane's table shares Hash64's low bits, and that hash is
// unseeded — anyone who can choose tuples could line them up on one probe run
// and make each lookup a walk of the table, an algorithmic-complexity attack
// on the sensor itself. Like a Go map, the index grows and never shrinks:
// after a flood it keeps its size until the table is dropped.
//
// Time is a logical clock: every Do advances it by Config.Tick, so "idle for
// N ticks" means "N ticks' worth of packets crossed the table since this flow
// last saw one". That keeps eviction deterministic and testable, and matches
// how a line-rate gateway actually experiences time — in packets, not seconds.
package flowtable

import (
	"encoding/binary"
	"hash/maphash"
	"sync"

	"repro/internal/nids"
)

// Key identifies one flow: the classifier 5-tuple from internal/nids.
type Key = nids.FiveTuple

// Config parameterizes a Table over its flow type F.
type Config[F any] struct {
	// New creates the flow state for a key, on the owner's goroutine, before
	// the entry exists; a panic in it leaves the table without the flow.
	New func(Key) F
	// Evict releases a flow's resources. Called exactly once per created
	// flow — on capacity eviction, idle eviction, Remove or Close — on the
	// owner's goroutine, after the entry has left the table and been counted,
	// so a panic in it leaves the table consistent. It receives the departing
	// record by value: for a pointer F that is the flow itself, for a value F
	// a copy of what the entry held, which is not in the table any more.
	Evict func(Key, F)
	// MaxFlows caps live flows; 0 means unlimited. An insert that pushes the
	// table past the cap evicts the least-recently-active flows of the whole
	// table, never the one just touched.
	MaxFlows int
	// IdleTicks evicts flows untouched for more than this many logical
	// clock ticks; 0 disables idle eviction. Idle flows are collected
	// opportunistically (at most two per Do) and exhaustively by EvictIdle.
	IdleTicks uint64
	// Tick is how far one Do advances the clock; 0 selects 1. An owner that
	// is one of N tables sharing a stream sets N, so IdleTicks keeps counting
	// packets of the whole stream.
	Tick uint64
}

// Stats is a counter snapshot.
type Stats struct {
	Live        int
	Created     uint64
	EvictedIdle uint64
	EvictedCap  uint64
	Removed     uint64 // explicit Remove calls (connection teardown)
}

// Table is a single-writer 5-tuple → flow map with LRU and idle eviction.
type Table[F any] struct {
	cfg Config[F]

	// mu orders the owner's index writes against Has. The owner probes the
	// index and relinks the LRU list without it: it is the only writer.
	mu   sync.Mutex
	seed maphash.Seed
	// slots is the index: a power-of-two array, probed linearly from a key's
	// home slot, no more than 3/4 full; nil marks an empty slot.
	slots []*entry[F]
	// Intrusive LRU list: head is most recently active, tail the least.
	head, tail *entry[F]
	clock      uint64
	n          Stats
}

// entry is one flow: a 40 B header and the record.
type entry[F any] struct {
	key        Key
	last       uint64 // clock reading at the flow's last Do
	prev, next *entry[F]
	flow       F
}

// New builds a table. Config.New and Config.Evict are required.
func New[F any](cfg Config[F]) *Table[F] {
	if cfg.New == nil || cfg.Evict == nil {
		panic("flowtable: Config.New and Config.Evict are required")
	}
	if cfg.Tick == 0 {
		cfg.Tick = 1
	}
	return &Table[F]{cfg: cfg, seed: maphash.MakeSeed(), slots: make([]*entry[F], 8)}
}

// home is key's first probe slot: the seeded hash of the tuple's 13 bytes.
func (t *Table[F]) home(key Key) int {
	var b [13]byte
	binary.LittleEndian.PutUint32(b[0:], key.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], key.DstIP)
	binary.LittleEndian.PutUint16(b[8:], key.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], key.DstPort)
	b[12] = key.Proto
	return int(maphash.Bytes(t.seed, b[:]) & uint64(len(t.slots)-1))
}

// slot returns key's slot: the one holding its entry, or the empty slot that
// ends its probe run.
func (t *Table[F]) slot(key Key) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for e := t.slots[i]; e != nil && e.key != key; e = t.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// index adds a new entry, doubling the index first when the entry would take
// it past 3/4 full.
func (t *Table[F]) index(e *entry[F]) {
	t.mu.Lock()
	if 4*(t.n.Live+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]*entry[F], 2*len(old))
		for _, o := range old {
			if o != nil {
				t.place(o)
			}
		}
	}
	t.place(e)
	t.mu.Unlock()
}

// place inserts e Robin Hood style: walking from e's home, e takes the slot
// of the first entry that sits nearer its own home than e would, and that
// entry walks on in e's place. Every probe run stays sorted by home slot,
// which keeps the longest one short — with 6 144 random keys in 8 192 slots,
// at most 27 slots in a thousand trials, where plain linear probing reached
// 204 — and lets deletion shift a run back one slot at a time.
func (t *Table[F]) place(e *entry[F]) {
	mask := len(t.slots) - 1
	i := t.home(e.key)
	for d := 0; t.slots[i] != nil; i, d = (i+1)&mask, d+1 {
		if rd := (i - t.home(t.slots[i].key)) & mask; rd < d {
			t.slots[i], e = e, t.slots[i]
			d = rd
		}
	}
	t.slots[i] = e
}

// unindex empties e's slot and shifts the rest of its probe run back over
// the hole, up to an empty slot or an entry already in its home, so no
// tombstone is left behind.
func (t *Table[F]) unindex(e *entry[F]) {
	mask := len(t.slots) - 1
	i := t.slot(e.key)
	t.mu.Lock()
	for j := (i + 1) & mask; t.slots[j] != nil && t.home(t.slots[j].key) != j; i, j = j, (j+1)&mask {
		t.slots[i] = t.slots[j]
	}
	t.slots[i] = nil
	t.mu.Unlock()
}

// Do runs fn on key's flow, creating it if absent, and reports whether this
// call created it. It advances the clock, moves the flow to the LRU front and
// runs eviction (capacity, then a bounded idle check) before fn. fn may read
// Clock — this call's tick — and must not otherwise call back into the table.
// The record fn receives lives in the table: it stays put until the flow is
// evicted.
func (t *Table[F]) Do(key Key, fn func(*F)) (created bool) {
	t.clock += t.cfg.Tick
	e := t.slots[t.slot(key)]
	if e == nil {
		e = &entry[F]{key: key, flow: t.cfg.New(key)}
		t.index(e)
		t.n.Live++
		t.n.Created++
		created = true
	} else {
		t.unlink(e)
	}
	e.last = t.clock
	t.pushFront(e)
	// e is at the head, so the tail is e only when nothing else is left.
	if t.cfg.MaxFlows > 0 {
		for t.n.Live > t.cfg.MaxFlows && t.tail != e {
			t.drop(t.tail, &t.n.EvictedCap)
		}
	}
	if t.cfg.IdleTicks > 0 {
		// Amortized idle collection: a steadily-ticking table drains idle
		// flows without full sweeps.
		for i := 0; i < 2 && t.tail != e && t.clock-t.tail.last > t.cfg.IdleTicks; i++ {
			t.drop(t.tail, &t.n.EvictedIdle)
		}
	}
	fn(&e.flow)
	return created
}

// DoHashed is Do with the record passed by value. The index hashes the key
// under its own seed, so hash is unused; the signature is what callers that
// carry the tuple hash already call.
func (t *Table[F]) DoHashed(key Key, _ uint64, fn func(F)) (created bool) {
	return t.Do(key, func(f *F) { fn(*f) })
}

// Has reports whether key's flow is currently live, without creating it,
// touching its LRU position, or advancing the clock. It is the one method
// safe to call from a goroutine other than the owner, while the owner runs:
// admission control uses it to tell packets of established flows from packets
// that would create new state.
func (t *Table[F]) Has(key Key) bool {
	t.mu.Lock()
	ok := t.slots[t.slot(key)] != nil
	t.mu.Unlock()
	return ok
}

// drop takes e out of the table, counts it under reason (nil: uncounted) and
// hands its flow to Evict.
func (t *Table[F]) drop(e *entry[F], reason *uint64) {
	t.unlink(e)
	t.unindex(e)
	t.n.Live--
	if reason != nil {
		*reason++
	}
	t.cfg.Evict(e.key, e.flow)
}

// Remove evicts key's flow immediately, reporting whether it was present.
// The gateway uses it for TCP lifecycle teardown (an RST aborts the
// connection).
func (t *Table[F]) Remove(key Key) bool {
	e := t.slots[t.slot(key)]
	if e == nil {
		return false
	}
	t.drop(e, &t.n.Removed)
	return true
}

// EvictIdle exhaustively evicts every flow idle for more than the
// configured IdleTicks and returns how many it evicted. It is a no-op when
// idle eviction is disabled.
func (t *Table[F]) EvictIdle() int {
	if t.cfg.IdleTicks == 0 {
		return 0
	}
	n := 0
	for ; t.tail != nil && t.clock-t.tail.last > t.cfg.IdleTicks; n++ {
		t.drop(t.tail, &t.n.EvictedIdle)
	}
	return n
}

// Range runs fn on every live flow, most recently active first, without
// advancing the clock or touching LRU positions — a diagnostic sweep. fn must
// not call back into the table.
func (t *Table[F]) Range(fn func(Key, *F)) {
	for e := t.head; e != nil; e = e.next {
		fn(e.key, &e.flow)
	}
}

// Close evicts every live flow. The table remains usable afterwards (a Do
// recreates flows), so Close doubles as a drain for gateway shutdown.
func (t *Table[F]) Close() {
	for t.tail != nil {
		t.drop(t.tail, nil)
	}
}

// Len returns the number of live flows.
func (t *Table[F]) Len() int { return t.n.Live }

// Clock returns the logical clock: Config.Tick times the Do calls so far. A
// caller that timestamps its own per-flow state on the table's clock (the
// gateway's reassembly gap timeout) reads it here, so both timeouts count
// the same packets.
func (t *Table[F]) Clock() uint64 { return t.clock }

// Stats returns a counter snapshot.
func (t *Table[F]) Stats() Stats { return t.n }

func (t *Table[F]) pushFront(e *entry[F]) {
	e.prev = nil
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

func (t *Table[F]) unlink(e *entry[F]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
