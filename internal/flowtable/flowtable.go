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
// An entry is a 40 B header (key, LRU links, last-activity tick) and a
// record: a connection's is the flow state F by value, a husk's — a
// connection that ended (Settle), kept so its stragglers are recognised — a
// one-byte mark. With the gateway's record a connection is one 96 B object,
// a husk one 48 B object. Each kind has its own index and LRU list on one
// clock, so a connection's packet probes one index and only a miss probes
// the husks'. Entries never move, so the *F a callback receives stays valid
// for the flow's life. An index is a power-of-two array of entry pointers
// probed linearly — one 8-byte slot per entry at up to 3/4 load — with Robin
// Hood insertion and deletion by backward shift, so probe runs stay short
// and need no tombstones. It hashes the tuple with hash/maphash under a seed
// drawn per table, never with nids.FiveTuple.Hash64: the gateway pins tuples
// to lanes by Hash64, so every tuple in one lane's table shares Hash64's low
// bits, and that hash is unseeded — anyone who can choose tuples could line
// them up on one probe run and make each lookup a walk of the table, an
// algorithmic-complexity attack on the sensor itself. An index grows and,
// like a Go map, never shrinks.
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
	// the entry exists; a panic in it leaves the table without the flow (or
	// with the husk it was to revive).
	New func(Key) F
	// Evict releases a flow's resources. Called exactly once per record New
	// built — on Settle, capacity or idle eviction, Remove or Close — on the
	// owner's goroutine, after the record has left the table and been
	// counted, so a panic in it leaves the table consistent. It receives the
	// departing record by value: for a pointer F the flow itself, for a value
	// F a copy of what the entry held.
	Evict func(Key, F)
	// MaxFlows caps entries of both kinds; 0 means unlimited. An insert past
	// the cap evicts the least-recently-active husk, and only when none is
	// left the least-recently-active connection, never the one just touched:
	// a lost husk costs nothing unless a straggler comes, a lost connection
	// its scan state mid-stream.
	MaxFlows int
	// IdleTicks evicts entries untouched for more than this many logical
	// clock ticks, oldest first whatever their kind; 0 disables idle
	// eviction. Idle entries are collected opportunistically (at most two per
	// Do) and exhaustively by EvictIdle.
	IdleTicks uint64
	// Tick is how far one Do advances the clock; 0 selects 1. An owner that
	// is one of N tables sharing a stream sets N, so IdleTicks keeps counting
	// packets of the whole stream.
	Tick uint64
}

// Stats is a counter snapshot.
type Stats struct {
	Live        int // entries of both kinds
	Husks       int // the part of Live held as husks
	Created     uint64
	EvictedIdle uint64
	EvictedCap  uint64
	Removed     uint64 // Remove calls and actions (connection teardown)
}

// Action is what Do does with a husk a packet reached, as the owner's husk
// callback decides from its mark.
type Action uint8

const (
	Keep   Action = iota // refresh the husk: the packet was a straggler
	Revive               // replace it with a connection Config.New builds, not counted as created
	Remove               // take it out of the table, counted as Removed
)

// Table is a single-writer 5-tuple → flow map with LRU and idle eviction.
type Table[F any] struct {
	cfg Config[F]

	// mu orders the owner's index writes against Has. The owner probes the
	// indexes and relinks the LRU lists without it: it is the only writer.
	mu    sync.Mutex
	conns set[F]
	husks set[uint8] // the record is the mark Settle was given
	clock uint64
	n     Stats // the counters; Live and Husks are the sets' sizes
}

// entry is one connection or husk: a 40 B header and the record.
type entry[R any] struct {
	key        Key
	last       uint64 // clock reading at the entry's last Do
	prev, next *entry[R]
	rec        R
}

// set is one kind of entry: an index and an intrusive LRU list.
type set[R any] struct {
	seed maphash.Seed
	// slots is the index: a power-of-two array, probed linearly from a key's
	// home slot, no more than 3/4 full; nil marks an empty slot.
	slots      []*entry[R]
	head, tail *entry[R] // most and least recently active
	n          int
	// spare is one vacated entry, zeroed, for the next insert: a settling
	// connection parks its entry and a reviving husk its own, so a tuple
	// cycling SYN → FIN allocates nothing.
	spare *entry[R]
}

// New builds a table. Config.New and Config.Evict are required.
func New[F any](cfg Config[F]) *Table[F] {
	if cfg.New == nil || cfg.Evict == nil {
		panic("flowtable: Config.New and Config.Evict are required")
	}
	if cfg.Tick == 0 {
		cfg.Tick = 1
	}
	return &Table[F]{
		cfg:   cfg,
		conns: set[F]{seed: maphash.MakeSeed(), slots: make([]*entry[F], 8)},
		husks: set[uint8]{seed: maphash.MakeSeed(), slots: make([]*entry[uint8], 8)},
	}
}

// home is key's first probe slot: the seeded hash of the tuple's 13 bytes.
func (s *set[R]) home(key Key) int {
	var b [13]byte
	binary.LittleEndian.PutUint32(b[0:], key.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], key.DstIP)
	binary.LittleEndian.PutUint16(b[8:], key.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], key.DstPort)
	b[12] = key.Proto
	return int(maphash.Bytes(s.seed, b[:]) & uint64(len(s.slots)-1))
}

// slot returns key's slot: the one holding its entry, or the empty slot that
// ends its probe run.
func (s *set[R]) slot(key Key) int {
	mask := len(s.slots) - 1
	i := s.home(key)
	for e := s.slots[i]; e != nil && e.key != key; e = s.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's entry, or nil.
func (s *set[R]) find(key Key) *entry[R] { return s.slots[s.slot(key)] }

// index adds a new entry, doubling the index first when the entry would take
// it past 3/4 full. The caller holds the table's mu.
func (s *set[R]) index(e *entry[R]) {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots = make([]*entry[R], 2*len(old))
		for _, o := range old {
			if o != nil {
				s.place(o)
			}
		}
	}
	s.place(e)
	s.n++
}

// place inserts e Robin Hood style: walking from e's home, e takes the slot
// of the first entry that sits nearer its own home than e would, and that
// entry walks on in e's place. Every probe run stays sorted by home slot,
// which keeps the longest one short — with 6 144 random keys in 8 192 slots,
// at most 27 slots in a thousand trials, where plain linear probing reached
// 204 — and lets deletion shift a run back one slot at a time.
func (s *set[R]) place(e *entry[R]) {
	mask := len(s.slots) - 1
	i := s.home(e.key)
	for d := 0; s.slots[i] != nil; i, d = (i+1)&mask, d+1 {
		if rd := (i - s.home(s.slots[i].key)) & mask; rd < d {
			s.slots[i], e = e, s.slots[i]
			d = rd
		}
	}
	s.slots[i] = e
}

// unindex empties e's slot and shifts the rest of its probe run back over
// the hole, up to an empty slot or an entry already in its home, so no
// tombstone is left behind. The caller holds the table's mu.
func (s *set[R]) unindex(e *entry[R]) {
	mask := len(s.slots) - 1
	i := s.slot(e.key)
	for j := (i + 1) & mask; s.slots[j] != nil && s.home(s.slots[j].key) != j; i, j = j, (j+1)&mask {
		s.slots[i] = s.slots[j]
	}
	s.slots[i] = nil
	s.n--
}

// remove takes e out of the index, under mu, and the list, and parks it.
func (s *set[R]) remove(mu *sync.Mutex, e *entry[R]) {
	mu.Lock()
	s.unindex(e)
	mu.Unlock()
	s.unlink(e)
	s.park(e)
}

// alloc returns an empty entry: the spare, if there is one.
func (s *set[R]) alloc() (e *entry[R]) {
	if e, s.spare = s.spare, nil; e == nil {
		e = new(entry[R])
	}
	return e
}

// park zeroes e, which has left the set, and keeps it if there is no spare.
func (s *set[R]) park(e *entry[R]) {
	*e = entry[R]{}
	if s.spare == nil {
		s.spare = e
	}
}

// Do runs fn on key's connection, creating it if the key is absent, and
// reports whether this call created it; on a husk it runs husk with the mark
// instead and does what that returns (a nil husk keeps). It advances the
// clock, moves the entry it touched to its list's front and runs eviction
// (capacity, then a bounded idle check) before fn. fn and husk may read
// Clock — this call's tick — and must not otherwise call back into the
// table. The record fn receives stays put until it settles or is evicted.
func (t *Table[F]) Do(key Key, fn func(*F), husk func(mark uint8) Action) (created bool) {
	t.clock += t.cfg.Tick
	e := t.conns.find(key)
	if e != nil {
		t.conns.unlink(e)
	} else if k := t.husks.find(key); k == nil {
		e = t.conns.alloc()
		e.key, e.rec = key, t.cfg.New(key)
		t.mu.Lock()
		t.conns.index(e)
		t.mu.Unlock()
		t.n.Created++
		created = true
	} else {
		act := Keep
		if husk != nil {
			act = husk(k.rec)
		}
		switch act {
		case Revive:
			e = t.conns.alloc()
			e.key, e.rec = key, t.cfg.New(key)
			t.mu.Lock()
			t.husks.unindex(k)
			t.conns.index(e)
			t.mu.Unlock()
			t.husks.unlink(k)
			t.husks.park(k)
		case Remove:
			t.dropHusk(k, &t.n.Removed)
		default:
			t.husks.unlink(k)
			k.last = t.clock
			t.husks.pushFront(k)
		}
	}
	if e != nil {
		e.last = t.clock
		t.conns.pushFront(e)
	}
	if t.cfg.MaxFlows > 0 {
		// Husks first; e heads its list, so it is the tail only when alone.
		for t.Len() > t.cfg.MaxFlows {
			if k := t.husks.tail; k != nil {
				t.dropHusk(k, &t.n.EvictedCap)
			} else if c := t.conns.tail; c != e {
				t.drop(c, &t.n.EvictedCap)
			} else {
				break
			}
		}
	}
	if t.cfg.IdleTicks > 0 {
		// Amortized idle collection: a steadily-ticking table drains idle
		// entries without full sweeps.
		for i := 0; i < 2 && t.dropIdle(); i++ {
		}
	}
	if e != nil {
		fn(&e.rec)
	}
	return created
}

// DoHashed is Do with the record passed by value, for an owner that never
// settles a connection. The index hashes under its own seed, so hash is
// unused; the signature is what callers carrying the tuple hash call.
func (t *Table[F]) DoHashed(key Key, _ uint64, fn func(F)) (created bool) {
	return t.Do(key, func(f *F) { fn(*f) }, nil)
}

// Settle turns key's connection into a husk carrying mark, reporting whether
// key was a connection, right after the Do that ended it: the husk heads its
// list stamped with this tick, keeping both lists in age order, and the
// record goes to Evict. Settling is not an eviction: Live is unchanged.
func (t *Table[F]) Settle(key Key, mark uint8) bool {
	e := t.conns.find(key)
	if e == nil {
		return false
	}
	k := t.husks.alloc()
	k.key, k.last, k.rec = key, t.clock, mark
	rec := e.rec
	t.mu.Lock()
	t.conns.unindex(e)
	t.husks.index(k)
	t.mu.Unlock()
	t.conns.unlink(e)
	t.conns.park(e)
	t.husks.pushFront(k)
	t.cfg.Evict(key, rec)
	return true
}

// Has reports whether key is in the table, as a connection or a husk, without
// creating it, touching its LRU position, or advancing the clock. It is the
// one method safe to call from a goroutine other than the owner, while the
// owner runs: admission control uses it to tell packets of known tuples from
// packets that would create new state.
func (t *Table[F]) Has(key Key) bool {
	t.mu.Lock()
	ok := t.conns.find(key) != nil || t.husks.find(key) != nil
	t.mu.Unlock()
	return ok
}

// drop takes connection e out of the table, counts it under reason and
// hands its record to Evict.
func (t *Table[F]) drop(e *entry[F], reason *uint64) {
	key, rec := e.key, e.rec
	t.conns.remove(&t.mu, e)
	*reason++
	t.cfg.Evict(key, rec)
}

// dropHusk takes husk k out of the table and counts it under reason. Its
// record went to Evict when it settled.
func (t *Table[F]) dropHusk(k *entry[uint8], reason *uint64) {
	t.husks.remove(&t.mu, k)
	*reason++
}

// dropIdle evicts the least recently active entry of either kind if it has
// idled past IdleTicks, and reports whether it did.
func (t *Table[F]) dropIdle() bool {
	c, k := t.conns.tail, t.husks.tail
	switch {
	case k != nil && (c == nil || k.last < c.last):
		if t.clock-k.last > t.cfg.IdleTicks {
			t.dropHusk(k, &t.n.EvictedIdle)
			return true
		}
	case c != nil && t.clock-c.last > t.cfg.IdleTicks:
		t.drop(c, &t.n.EvictedIdle)
		return true
	}
	return false
}

// Remove evicts key's connection or husk immediately, reporting whether it
// was present. The gateway uses it for TCP lifecycle teardown (an RST aborts
// the connection).
func (t *Table[F]) Remove(key Key) bool {
	if e := t.conns.find(key); e != nil {
		t.drop(e, &t.n.Removed)
		return true
	}
	if k := t.husks.find(key); k != nil {
		t.dropHusk(k, &t.n.Removed)
		return true
	}
	return false
}

// EvictIdle exhaustively evicts every entry idle for more than the
// configured IdleTicks and returns how many it evicted. It is a no-op when
// idle eviction is disabled.
func (t *Table[F]) EvictIdle() int {
	if t.cfg.IdleTicks == 0 {
		return 0
	}
	n := 0
	for ; t.dropIdle(); n++ {
	}
	return n
}

// Range runs fn on every connection, most recently active first, without
// advancing the clock or touching LRU positions — a diagnostic sweep. Husks
// hold no record and are not visited. fn must not call back into the table.
func (t *Table[F]) Range(fn func(Key, *F)) {
	for e := t.conns.head; e != nil; e = e.next {
		fn(e.key, &e.rec)
	}
}

// Close evicts every entry, uncounted. The table remains usable afterwards
// (a Do recreates flows), so Close doubles as a drain for gateway shutdown.
func (t *Table[F]) Close() {
	var uncounted uint64
	for t.conns.tail != nil {
		t.drop(t.conns.tail, &uncounted)
	}
	for t.husks.tail != nil {
		t.dropHusk(t.husks.tail, &uncounted)
	}
}

// Len returns the number of entries, connections and husks.
func (t *Table[F]) Len() int { return t.conns.n + t.husks.n }

// Clock returns the logical clock: Config.Tick times the Do calls so far. A
// caller that timestamps its own per-flow state on the table's clock (the
// gateway's reassembly gap timeout) reads it here, so both timeouts count
// the same packets.
func (t *Table[F]) Clock() uint64 { return t.clock }

// Stats returns a counter snapshot.
func (t *Table[F]) Stats() Stats {
	s := t.n
	s.Live, s.Husks = t.Len(), t.husks.n
	return s
}

func (s *set[R]) pushFront(e *entry[R]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *set[R]) unlink(e *entry[R]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
