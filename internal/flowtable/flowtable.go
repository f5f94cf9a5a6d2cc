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
// mutex around index writes and slab growth only — once per flow boundary,
// never per packet.
//
// An entry is a 28 B header (key, last-activity stamp, LRU links) and a
// record: a connection's is the flow state F by value, a husk's — a
// connection that ended (Settle), kept so its stragglers are recognised — a
// one-byte mark. Each kind has its own set: a slab of entries, an index and
// an LRU list on one clock, so a connection's packet probes one index and
// only a miss probes the husks'. A slab is a directory of fixed-size chunks,
// allocated as the set first needs one and never moved, so the *F a callback
// receives stays valid for the flow's life; the LRU links and index
// slots are 32-bit entry numbers, and the entries no key holds are zeroed on
// one free list threaded through the link field. With the gateway's 48 B
// record a connection's entry is 80 B, a husk's 32 B. An index is a
// power-of-two array of entry numbers probed linearly — one 4-byte slot per
// entry at up to 3/4 load — with Robin Hood insertion and deletion by
// backward shift, so probe runs stay short and need no tombstones. It hashes
// the tuple with hash/maphash under a seed drawn per table, never with
// nids.FiveTuple.Hash64: the gateway pins tuples to lanes by Hash64, so
// every tuple in one lane's table shares Hash64's low bits, and that hash is
// unseeded — anyone who can choose tuples could line them up on one probe
// run and make each lookup a walk of the table, an algorithmic-complexity
// attack on the sensor itself. An index grows and, like a Go map, never
// shrinks; a slab gives chunks back only when its set empties.
//
// Time is a logical clock: every Do advances it by Config.Tick, so "idle for
// N ticks" means "N ticks' worth of packets crossed the table since this flow
// last saw one". That keeps eviction deterministic and testable, and matches
// how a line-rate gateway actually experiences time — in packets, not seconds.
// The clock is 64 bits; an entry keeps the low 32 of its last reading, and
// ages are taken modulo 2³², which idle eviction keeps exact.
package flowtable

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"unsafe"

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
	// Do) and exhaustively by EvictIdle. It must be below 2³¹.
	IdleTicks uint64
	// Tick is how far one Do advances the clock; 0 selects 1. An owner that
	// is one of N tables sharing a stream sets N, so IdleTicks keeps counting
	// packets of the whole stream. It must be below 2³¹.
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

	// mu orders the owner's index and chunk-directory writes against Has.
	// The owner probes the indexes and relinks the LRU lists without it: it
	// is the only writer.
	mu    sync.Mutex
	conns set[F]
	husks set[uint8] // the record is the mark Settle was given
	clock uint64
	n     Stats // the counters; Live and Husks are the sets' sizes
}

// A slab chunk is one chunkBytes allocation, a malloc size class, holding as
// many entries as fit beside the 8 B header the allocator prefixes to a
// pointerful object that size, up to chunkMax: 51 of the gateway's 80 B
// connection entries (4 088 B) or 127 of its 32 B husk entries (4 064 B). A
// set's unused space is the rest of its newest chunk, at most 4 KiB.
const (
	chunkBytes = 4096
	chunkBits  = 7
	chunkMax   = 1<<chunkBits - 1
)

// ref names an entry of a set: its chunk's number shifted up by chunkBits,
// above its slot in the chunk plus one, so it splits with a shift and a mask
// and is never 0 — the zero ref is no entry, and marks an empty index slot
// and a list's end.
type ref = uint32

// entry is one connection or husk: a 28 B header and the record.
type entry[R any] struct {
	key Key
	// last is the clock's low 32 bits at the entry's last Do. An age is
	// uint32(clock) − last, exact below 2³² ticks: idle eviction keeps every
	// age compared under IdleTicks + Tick, which New holds below that.
	last uint32
	// prev and next link the set's LRU list; a free entry's next links the
	// free list.
	prev, next ref
	rec        R
}

// set is one kind of entry: a slab, an index into it and an intrusive LRU
// list through it.
type set[R any] struct {
	seed maphash.Seed
	// slots is the index: a power-of-two array, probed linearly from a key's
	// home slot, no more than 3/4 full; 0 marks an empty slot.
	slots []ref
	// chunks is the slab, a directory of chunks of perChunk entries: entry r
	// lives in chunk r>>chunkBits at slot r&chunkMax − 1. A chunk is
	// allocated when the free list runs dry and never moves, so a *R stays
	// valid while its entry is live.
	chunks     [][]entry[R]
	perChunk   int
	head, tail ref // most and least recently active
	// free lists the entries no key holds, zeroed: the ones vacated by a
	// settle, revive or eviction, and the unused rest of the newest chunk.
	free ref
	n    int
}

// New builds a table. Config.New and Config.Evict are required, and
// IdleTicks and Tick must be below 2³¹. It allocates no slab: the first
// entry of each kind does.
func New[F any](cfg Config[F]) *Table[F] {
	if cfg.New == nil || cfg.Evict == nil {
		panic("flowtable: Config.New and Config.Evict are required")
	}
	if cfg.IdleTicks >= 1<<31 || cfg.Tick >= 1<<31 {
		panic("flowtable: Config.IdleTicks and Config.Tick must be below 2^31")
	}
	if cfg.Tick == 0 {
		cfg.Tick = 1
	}
	return &Table[F]{cfg: cfg, conns: newSet[F](), husks: newSet[uint8]()}
}

func newSet[R any]() set[R] {
	return set[R]{
		seed:     maphash.MakeSeed(),
		slots:    make([]ref, 8),
		perChunk: max(1, min(chunkMax, (chunkBytes-8)/int(unsafe.Sizeof(entry[R]{})))),
	}
}

// at returns entry r, which must not be 0.
func (s *set[R]) at(r ref) *entry[R] {
	return &s.chunks[r>>chunkBits][r&chunkMax-1]
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
	for r := s.slots[i]; r != 0 && s.at(r).key != key; r = s.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's entry, or 0: slot's walk, returning what it stops at.
func (s *set[R]) find(key Key) ref {
	mask := len(s.slots) - 1
	for i := s.home(key); ; i = (i + 1) & mask {
		if r := s.slots[i]; r == 0 || s.at(r).key == key {
			return r
		}
	}
}

// index adds entry r, doubling the index first when r would take it past 3/4
// full. The caller holds the table's mu.
func (s *set[R]) index(r ref) {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots = make([]ref, 2*len(old))
		for _, o := range old {
			if o != 0 {
				s.place(o)
			}
		}
	}
	s.place(r)
	s.n++
}

// place inserts r Robin Hood style: walking from r's home, r takes the slot
// of the first entry that sits nearer its own home than r would, and that
// entry walks on in r's place. Every probe run stays sorted by home slot,
// which keeps the longest one short — with 6 144 random keys in 8 192 slots,
// at most 27 slots in a thousand trials, where plain linear probing reached
// 204 — and lets deletion shift a run back one slot at a time.
func (s *set[R]) place(r ref) {
	mask := len(s.slots) - 1
	i := s.home(s.at(r).key)
	for d := 0; s.slots[i] != 0; i, d = (i+1)&mask, d+1 {
		if rd := (i - s.home(s.at(s.slots[i]).key)) & mask; rd < d {
			s.slots[i], r = r, s.slots[i]
			d = rd
		}
	}
	s.slots[i] = r
}

// unindex empties r's slot and shifts the rest of its probe run back over
// the hole, up to an empty slot or an entry already in its home, so no
// tombstone is left behind. The caller holds the table's mu.
func (s *set[R]) unindex(r ref) {
	mask := len(s.slots) - 1
	i := s.slot(s.at(r).key)
	for j := (i + 1) & mask; s.slots[j] != 0 && s.home(s.at(s.slots[j]).key) != j; i, j = j, (j+1)&mask {
		s.slots[i] = s.slots[j]
	}
	s.slots[i] = 0
	s.n--
}

// remove takes r out of the index, under mu, and releases it.
func (s *set[R]) remove(mu *sync.Mutex, r ref) {
	mu.Lock()
	s.unindex(r)
	mu.Unlock()
	s.release(mu, r)
}

// add takes an entry off the free list for key and rec, stamps it with clock
// reading now and puts it at the front of the list; the caller indexes it.
// When the free list is empty add first allocates a chunk, under mu, since
// Has reads the chunk directory, and lists the chunk's entries in order.
func (s *set[R]) add(mu *sync.Mutex, key Key, rec R, now uint64) ref {
	if s.free == 0 {
		mu.Lock()
		s.chunks = append(s.chunks, make([]entry[R], s.perChunk))
		mu.Unlock()
		s.list(len(s.chunks) - 1)
	}
	r := s.free
	e := s.at(r)
	s.free = e.next
	e.key, e.last, e.rec = key, uint32(now), rec
	s.pushFront(r, e)
	return r
}

// release unlinks r, which has left the index, zeroes it so it pins nothing
// its record referenced, and puts it on the free list. When r was the set's
// last entry the slab gives back every chunk but the first, under mu, so a
// burst of flows that has ended does not keep its peak slab.
func (s *set[R]) release(mu *sync.Mutex, r ref) {
	e := s.at(r)
	s.unlink(e)
	*e = entry[R]{next: s.free}
	s.free = r
	if s.n == 0 && len(s.chunks) > 1 {
		mu.Lock()
		clear(s.chunks[1:])
		s.chunks = s.chunks[:1]
		mu.Unlock()
		s.free = 0
		s.list(0)
	}
}

// list puts chunk c's entries, all free, on the free list in order.
func (s *set[R]) list(c int) {
	base := ref(c) << chunkBits
	for i := s.perChunk; i > 0; i-- {
		s.chunks[c][i-1].next, s.free = s.free, base|ref(i)
	}
}

// touch stamps r with clock reading now and moves it to the list's front.
func (s *set[R]) touch(r ref, now uint64) {
	e := s.at(r)
	e.last = uint32(now)
	if s.head != r {
		s.unlink(e)
		s.pushFront(r, e)
	}
}

// age is how many ticks entry r has been idle at clock reading now.
func (s *set[R]) age(r ref, now uint64) uint32 { return uint32(now) - s.at(r).last }

// Do runs fn on key's connection, creating it if the key is absent, and
// reports whether this call created it; on a husk it runs husk with the mark
// instead and does what that returns (a nil husk keeps). It advances the
// clock, moves the entry it touched to its list's front and runs eviction
// (capacity, then a bounded idle check) before fn. fn and husk may read
// Clock — this call's tick — and must not otherwise call back into the
// table. The record fn receives stays put until it settles or is evicted.
func (t *Table[F]) Do(key Key, fn func(*F), husk func(mark uint8) Action) (created bool) {
	t.clock += t.cfg.Tick
	r := t.conns.find(key)
	if r != 0 {
		t.conns.touch(r, t.clock)
	} else if k := t.husks.find(key); k == 0 {
		r = t.conns.add(&t.mu, key, t.cfg.New(key), t.clock)
		t.mu.Lock()
		t.conns.index(r)
		t.mu.Unlock()
		t.n.Created++
		created = true
	} else {
		act := Keep
		if husk != nil {
			act = husk(t.husks.at(k).rec)
		}
		switch act {
		case Revive:
			r = t.conns.add(&t.mu, key, t.cfg.New(key), t.clock)
			t.mu.Lock()
			t.husks.unindex(k)
			t.conns.index(r)
			t.mu.Unlock()
			t.husks.release(&t.mu, k)
		case Remove:
			t.dropHusk(k, &t.n.Removed)
		default:
			t.husks.touch(k, t.clock)
		}
	}
	if t.cfg.MaxFlows > 0 {
		// Husks first; r heads its list, so it is the tail only when alone.
		for t.Len() > t.cfg.MaxFlows {
			if k := t.husks.tail; k != 0 {
				t.dropHusk(k, &t.n.EvictedCap)
			} else if c := t.conns.tail; c != r {
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
	if r != 0 {
		fn(&t.conns.at(r).rec)
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
	r := t.conns.find(key)
	if r == 0 {
		return false
	}
	k := t.husks.add(&t.mu, key, mark, t.clock)
	rec := t.conns.at(r).rec
	t.mu.Lock()
	t.conns.unindex(r)
	t.husks.index(k)
	t.mu.Unlock()
	t.conns.release(&t.mu, r)
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
	ok := t.conns.find(key) != 0 || t.husks.find(key) != 0
	t.mu.Unlock()
	return ok
}

// drop takes connection r out of the table, counts it under reason and
// hands its record to Evict.
func (t *Table[F]) drop(r ref, reason *uint64) {
	e := t.conns.at(r)
	key, rec := e.key, e.rec
	t.conns.remove(&t.mu, r)
	*reason++
	t.cfg.Evict(key, rec)
}

// dropHusk takes husk k out of the table and counts it under reason. Its
// record went to Evict when it settled.
func (t *Table[F]) dropHusk(k ref, reason *uint64) {
	t.husks.remove(&t.mu, k)
	*reason++
}

// dropIdle evicts the least recently active entry of either kind if it has
// idled past IdleTicks, and reports whether it did.
func (t *Table[F]) dropIdle() bool {
	c, k := t.conns.tail, t.husks.tail
	idle := uint32(t.cfg.IdleTicks)
	switch {
	case k != 0 && (c == 0 || t.husks.age(k, t.clock) > t.conns.age(c, t.clock)):
		if t.husks.age(k, t.clock) > idle {
			t.dropHusk(k, &t.n.EvictedIdle)
			return true
		}
	case c != 0 && t.conns.age(c, t.clock) > idle:
		t.drop(c, &t.n.EvictedIdle)
		return true
	}
	return false
}

// Remove evicts key's connection or husk immediately, reporting whether it
// was present. The gateway uses it for TCP lifecycle teardown (an RST aborts
// the connection).
func (t *Table[F]) Remove(key Key) bool {
	if r := t.conns.find(key); r != 0 {
		t.drop(r, &t.n.Removed)
		return true
	}
	if k := t.husks.find(key); k != 0 {
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
	for r := t.conns.head; r != 0; {
		e := t.conns.at(r)
		fn(e.key, &e.rec)
		r = e.next
	}
}

// Close evicts every entry, uncounted. The table remains usable afterwards
// (a Do recreates flows), so Close doubles as a drain for gateway shutdown.
func (t *Table[F]) Close() {
	var uncounted uint64
	for t.conns.tail != 0 {
		t.drop(t.conns.tail, &uncounted)
	}
	for t.husks.tail != 0 {
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

func (s *set[R]) pushFront(r ref, e *entry[R]) {
	e.prev, e.next = 0, s.head
	if s.head != 0 {
		s.at(s.head).prev = r
	} else {
		s.tail = r
	}
	s.head = r
}

func (s *set[R]) unlink(e *entry[R]) {
	if e.prev != 0 {
		s.at(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next != 0 {
		s.at(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = 0, 0
}
