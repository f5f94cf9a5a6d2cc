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
// mutex around index writes, chunk-directory changes and ring compaction
// only — once per flow boundary or husk a straggler keeps, never for a
// packet of a live connection.
//
// A table holds two kinds of entry. A connection's is a 28 B header (key,
// last-activity stamp, LRU links) and the flow state F by value, in a slab: a
// directory of fixed-size chunks, allocated as the slab first needs one and
// never moved, so the *F a callback receives stays valid for the flow's life.
// The LRU links are 32-bit entry numbers, and the entries no key holds are
// zeroed on one free list threaded through the link field; the gateway's
// connection entry is 64 B, one cache line. A husk — a connection that ended
// (Settle), kept so its stragglers are recognised — needs no links: every
// husk is stamped with the clock when it is added, so husks live in a ring in
// the order they settled, which is age order, and each is a 20 B entry: the
// tuple's 13 bytes packed as the index hashes them, its one-byte mark and its
// 32-bit stamp. Settle appends at the ring's tail, and capacity and idle
// eviction take its head. A straggler that keeps a husk moves it to the tail,
// and a revive or a removal takes it out; each leaves a zeroed hole. The
// head skips holes and gives back every chunk it passes, an emptied ring
// keeps only its first chunk, and once holes outnumber one in 16 live husks
// the ring compacts in place, so its slack stays bounded whatever the
// traffic; a husk costs its owner at most HuskCharge. Compaction moves a
// bounded stretch of the ring at a time, one step per hole made while it is
// under way, so it never holds the mutex Has takes for more than one step.
//
// Both kinds share one index: a power-of-two array of 4-byte entry numbers
// probed linearly — one slot per entry at up to 3/4 load — with Robin Hood
// insertion and deletion by backward shift, so probe runs stay short and
// need no tombstones, and a settle or a revive rewrites its key's one slot in
// place. It hashes the tuple with hash/maphash under a seed drawn per table,
// never with nids.FiveTuple.Hash64: the gateway pins tuples to lanes by
// Hash64, so every tuple in one lane's table shares Hash64's low bits, and
// that hash is unseeded — anyone who can choose tuples could line them up on
// one probe run and make each lookup a walk of the table, an
// algorithmic-complexity attack on the sensor itself. The index grows and,
// like a Go map, never shrinks; the slab gives chunks back only when it
// empties.
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
	"fmt"
	"hash/maphash"
	"reflect"
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
	// the cap evicts as EvictOldest does, sparing the entry just touched. An
	// owner that caps the entries' bytes instead (EntryBytes, HuskCharge)
	// leaves it 0 and calls EvictOldest itself.
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

// Action is what Do does with a husk a packet reached, as the owner's
// straggler callback decides from its mark.
type Action uint8

const (
	Keep   Action = iota // refresh the husk: the packet was a straggler
	Revive               // replace it with a connection Config.New builds, not counted as created
	Remove               // take it out of the table, counted as Removed
)

// HuskCharge is the most one husk costs its table's heap, the unused ends of
// the ring's first and last chunks and one hole apart: its 20 B entry, its
// 4-byte index slot at the index's lowest load — 3/8 full, just after a
// doubling — and its share of the ring's holes, at most one per holeShare
// husks and one per compactStep positions, rounded up. An owner that caps its
// table's bytes charges each husk this.
const HuskCharge = 32

// Table is a single-writer 5-tuple → flow map with LRU and idle eviction.
type Table[F any] struct {
	cfg Config[F]

	// mu orders the owner's writes to what Has reads — the index, both chunk
	// directories and, while the ring compacts, the husks it moves — against
	// Has. The owner reads them and relinks the LRU list without it: it is
	// the only writer.
	mu   sync.Mutex
	seed maphash.Seed
	// slots is the index of both kinds: a power-of-two array, probed linearly
	// from a key's home slot, no more than 3/4 full; 0 marks an empty slot.
	slots []ref
	conns slab[F]
	husks ring
	clock uint64
	n     Stats // the counters; Live and Husks are the kinds' sizes
}

// A chunk is one chunkBytes allocation, a malloc size class, holding as many
// entries as fit: up to chunkMax of a connection slab's — 64 of the gateway's
// 64 B entries — and ringPer husks. Both gateway entries are pointer-free, so
// the allocator prefixes no header; a pointerful connection entry's chunk
// still leaves room for its 8 B header unless its entries fill all
// chunkBytes.
const (
	chunkBytes = 4096
	chunkBits  = 8
	chunkMax   = 1<<chunkBits - 1
	ringPer    = chunkBytes / int(unsafe.Sizeof(husk{})) // 204, 4 080 B
	// holeShare bounds the ring's holes: once they outnumber one in
	// holeShare live husks, the ring compacts.
	holeShare = 16
	// compactStep bounds one step of compaction, and so how long it holds
	// the mutex Has takes: a step crosses at most this many ring positions,
	// moving the husks among them. While a compaction is under way each new hole brings
	// one more step, so its holes grow by at most one per compactStep
	// positions of the ring's span before it ends.
	compactStep = 512
)

// ref names an entry. A connection's is its chunk's number shifted up by
// chunkBits, above its slot in the chunk plus one, so it splits with a shift
// and a mask; a husk's is huskBit above the low 31 bits of its ring position.
// Neither is 0: the zero ref is no entry, and marks an empty index slot and a
// list's end.
type ref = uint32

const huskBit ref = 1 << 31

// entry is one connection: a 28 B header and the record.
type entry[F any] struct {
	key Key
	// last is the clock's low 32 bits at the entry's last Do. An age is
	// uint32(clock) − last, exact below 2³² ticks: idle eviction keeps every
	// age compared under IdleTicks + Tick, which New holds below that.
	last uint32
	// prev and next link the slab's LRU list; a free entry's next links the
	// free list.
	prev, next ref
	rec        F
}

// slab holds the connections: a directory of chunks of perChunk entries —
// entry r lives in chunk r>>chunkBits at slot r&chunkMax − 1 — and an
// intrusive LRU list through them. A chunk is allocated when the free list
// runs dry and never moves, so a *F stays valid while its entry is live.
type slab[F any] struct {
	chunks     [][]entry[F]
	perChunk   int
	head, tail ref // most and least recently active
	// free lists the entries no key holds, zeroed: the ones vacated by a
	// settle or an eviction, and the unused rest of the newest chunk.
	free ref
	n    int
}

// husk is one finished connection: its tuple packed as the index hashes it,
// the mark Settle gave it, and last, as a connection's. A hole is the zero
// husk, live false.
type husk struct {
	key  [13]byte
	mark uint8
	live bool
	last uint32
}

type ringChunk [ringPer]husk

// ring holds the husks in stamp order. Positions count appends modulo 2³²:
// chunks[0] begins at position base, head is the oldest husk's (tail when
// the ring is empty), tail the next append's, and the positions in between
// that hold no husk are holes. The head never rests on a hole, and it lies
// in chunks[0]. fill and scan are compaction's cursors, head ≤ fill ≤ scan ≤
// tail: the positions from fill to scan are holes, and the next step moves
// the husks from scan on down to fill; both rest at the head between
// compactions.
type ring struct {
	chunks                       []*ringChunk
	base, head, tail, fill, scan uint32
	n                            int
}

// New builds a table. Config.New and Config.Evict are required, and
// IdleTicks and Tick must be below 2³¹. It allocates no chunk: the first
// connection allocates the slab's, the first Settle the ring's.
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
	return &Table[F]{
		cfg:   cfg,
		seed:  maphash.MakeSeed(),
		slots: make([]ref, 8),
		conns: slab[F]{perChunk: max(1, min(chunkMax, chunkBytes/int(unsafe.Sizeof(entry[F]{}))))},
	}
}

// pack writes key's 13 bytes to b, as the index hashes them and a husk keeps
// them. Both are pointers so that neither the tuple nor the bytes are copied
// whole: a 16-byte load of a tuple just stored field by field stalls on
// store forwarding, which BenchmarkDoHit showed as a third of a lookup.
func pack(b *[13]byte, key *Key) {
	binary.LittleEndian.PutUint32(b[0:], key.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], key.DstIP)
	binary.LittleEndian.PutUint16(b[8:], key.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], key.DstPort)
	b[12] = key.Proto
}

// unpack is pack's inverse.
func unpack(b [13]byte) Key {
	return Key{
		SrcIP: binary.LittleEndian.Uint32(b[0:]), DstIP: binary.LittleEndian.Uint32(b[4:]),
		SrcPort: binary.LittleEndian.Uint16(b[8:]), DstPort: binary.LittleEndian.Uint16(b[10:]),
		Proto: b[12],
	}
}

// home is the first probe slot of the tuple packed as b: its seeded hash.
func (t *Table[F]) home(b *[13]byte) int {
	return int(maphash.Bytes(t.seed, b[:]) & uint64(len(t.slots)-1))
}

// homeOf is entry r's home slot.
func (t *Table[F]) homeOf(r ref) int {
	if r&huskBit != 0 {
		return t.home(&t.husks.at(r).key)
	}
	var b [13]byte
	pack(&b, &t.conns.at(r).key)
	return t.home(&b)
}

// lookup returns the slot holding key's entry, of either kind, and the
// entry; or, when key is absent, the empty slot that ends its probe run and
// 0.
func (t *Table[F]) lookup(key Key) (int, ref) {
	var b [13]byte
	pack(&b, &key)
	mask := len(t.slots) - 1
	for i := t.home(&b); ; i = (i + 1) & mask {
		r := t.slots[i]
		if r == 0 || r&huskBit == 0 && t.conns.at(r).key == key || r&huskBit != 0 && t.husks.at(r).key == b {
			return i, r
		}
	}
}

// slotOf returns the slot holding entry r.
func (t *Table[F]) slotOf(r ref) int {
	mask := len(t.slots) - 1
	i := t.homeOf(r)
	for t.slots[i] != r {
		i = (i + 1) & mask
	}
	return i
}

// index adds entry r, already counted in Len, doubling the index first when
// r takes it past 3/4 full.
func (t *Table[F]) index(r ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if 4*t.Len() > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]ref, 2*len(old))
		for _, o := range old {
			if o != 0 {
				t.place(o)
			}
		}
	}
	t.place(r)
}

// place inserts r Robin Hood style: walking from r's home, r takes the slot
// of the first entry that sits nearer its own home than r would, and that
// entry walks on in r's place. Every probe run stays sorted by home slot,
// which keeps the longest one short — with 6 144 random keys in 8 192 slots,
// at most 27 slots in a thousand trials, where plain linear probing reached
// 204 — and lets deletion shift a run back one slot at a time.
func (t *Table[F]) place(r ref) {
	mask := len(t.slots) - 1
	i := t.homeOf(r)
	for d := 0; t.slots[i] != 0; i, d = (i+1)&mask, d+1 {
		if rd := (i - t.homeOf(t.slots[i])) & mask; rd < d {
			t.slots[i], r = r, t.slots[i]
			d = rd
		}
	}
	t.slots[i] = r
}

// unindex empties r's slot and shifts the rest of its probe run back over
// the hole, up to an empty slot or an entry already in its home, so no
// tombstone is left behind.
func (t *Table[F]) unindex(r ref) {
	t.mu.Lock()
	mask := len(t.slots) - 1
	i := t.slotOf(r)
	for j := (i + 1) & mask; t.slots[j] != 0 && t.homeOf(t.slots[j]) != j; i, j = j, (j+1)&mask {
		t.slots[i] = t.slots[j]
	}
	t.slots[i] = 0
	t.mu.Unlock()
}

// rewrite points slot i, which holds an entry of key, at r: a key changing
// kind, or a husk moving in the ring, keeps its one slot.
func (t *Table[F]) rewrite(i int, r ref) {
	t.mu.Lock()
	t.slots[i] = r
	t.mu.Unlock()
}

// at returns connection r, which must not be 0.
func (s *slab[F]) at(r ref) *entry[F] {
	return &s.chunks[r>>chunkBits][r&chunkMax-1]
}

// add takes an entry off the free list for key and rec, stamps it with clock
// reading now, puts it at the front of the list and counts it; the caller
// indexes it. When the free list is empty add first allocates a chunk, under
// mu, since Has reads the chunk directory, and lists the chunk's entries in
// order.
func (s *slab[F]) add(mu *sync.Mutex, key Key, rec F, now uint64) ref {
	if s.free == 0 {
		mu.Lock()
		s.chunks = append(s.chunks, make([]entry[F], s.perChunk))
		mu.Unlock()
		s.list(len(s.chunks) - 1)
	}
	r := s.free
	e := s.at(r)
	s.free = e.next
	e.key, e.last, e.rec = key, uint32(now), rec
	s.pushFront(r, e)
	s.n++
	return r
}

// release unlinks r, which has left the index, zeroes it so it pins nothing
// its record referenced, and puts it on the free list. When r was the slab's
// last entry the slab gives back every chunk but the first, under mu, so a
// burst of flows that has ended does not keep its peak slab.
func (s *slab[F]) release(mu *sync.Mutex, r ref) {
	e := s.at(r)
	s.unlink(e)
	*e = entry[F]{next: s.free}
	s.free = r
	s.n--
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
func (s *slab[F]) list(c int) {
	base := ref(c) << chunkBits
	for i := s.perChunk; i > 0; i-- {
		s.chunks[c][i-1].next, s.free = s.free, base|ref(i)
	}
}

// touch stamps r with clock reading now and moves it to the list's front.
func (s *slab[F]) touch(r ref, now uint64) {
	e := s.at(r)
	e.last = uint32(now)
	if s.head != r {
		s.unlink(e)
		s.pushFront(r, e)
	}
}

func (s *slab[F]) pushFront(r ref, e *entry[F]) {
	e.prev, e.next = 0, s.head
	if s.head != 0 {
		s.at(s.head).prev = r
	} else {
		s.tail = r
	}
	s.head = r
}

func (s *slab[F]) unlink(e *entry[F]) {
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

// ref is the ref of the husk at position p.
func (q *ring) ref(p uint32) ref { return p | huskBit }

// pos returns the husk at position p, which must lie in the chunks.
func (q *ring) pos(p uint32) *husk {
	off := int(p - q.base)
	return &q.chunks[off/ringPer][off%ringPer]
}

// at returns husk r: position base plus r's distance from base modulo 2³¹,
// which is the ring's span at most.
func (q *ring) at(r ref) *husk { return q.pos(q.base + (r-q.base)&^huskBit) }

// push appends h at the tail and counts it, first allocating a chunk, under
// mu, when the last is full; the caller indexes it.
func (q *ring) push(mu *sync.Mutex, h husk) ref {
	if int(q.tail-q.base) == len(q.chunks)*ringPer {
		mu.Lock()
		q.chunks = append(q.chunks, new(ringChunk))
		mu.Unlock()
	}
	*q.pos(q.tail) = h
	q.tail++
	q.n++
	return q.ref(q.tail - 1)
}

// vacate zeroes husk r, which has left the index, and restores the ring's
// bounds: an emptied ring rewinds to its first chunk and gives back the
// rest; otherwise the head passes holes, giving back every chunk it leaves,
// and once holes outnumber one in holeShare husks compaction takes a step —
// more only when holes outrun maxHoles.
func (t *Table[F]) vacate(r ref) {
	q := &t.husks
	*q.at(r) = husk{}
	q.n--
	if q.n == 0 {
		t.mu.Lock()
		clear(q.chunks[1:])
		q.chunks = q.chunks[:1]
		t.mu.Unlock()
		q.head, q.tail, q.fill, q.scan = q.base, q.base, q.base, q.base
		return
	}
	for !q.pos(q.head).live {
		q.head++
	}
	if q.fill-q.base < q.head-q.base { // the head passed the holes at fill
		q.fill, q.scan = q.head, q.head
	}
	if c := int(q.head-q.base) / ringPer; c > 0 {
		t.mu.Lock()
		kept := copy(q.chunks, q.chunks[c:])
		clear(q.chunks[kept:])
		q.chunks = q.chunks[:kept]
		q.base += uint32(c * ringPer)
		t.mu.Unlock()
	}
	if q.holes()*holeShare > q.n {
		t.compact()
		for q.holes() > q.maxHoles() {
			t.compact()
		}
	}
}

// holes counts the ring's holes.
func (q *ring) holes() int { return int(q.tail-q.head) - q.n }

// maxHoles is the most holes the ring keeps: one per holeShare husks, plus
// one per compactStep positions of its span and one more for a compaction
// under way.
func (q *ring) maxHoles() int { return q.n/holeShare + int(q.tail-q.head)/compactStep + 1 }

// compact takes one step of closing the ring's holes in place: across up to
// compactStep positions from scan, each husk moves down to fill and its
// index slot is rewritten. The step that reaches the tail moves the tail
// back to fill, gives back the chunks past it and rests the cursors at the
// head. A step holds mu, since Has reads the husks it moves, for at most
// compactStep probes, whatever the ring's size.
func (t *Table[F]) compact() {
	q := &t.husks
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < compactStep && q.scan != q.tail; i, q.scan = i+1, q.scan+1 {
		h := q.pos(q.scan)
		if !h.live {
			continue
		}
		if q.scan != q.fill {
			t.slots[t.slotOf(q.ref(q.scan))] = q.ref(q.fill)
			*q.pos(q.fill), *h = *h, husk{}
		}
		q.fill++
	}
	if q.scan == q.tail {
		q.tail = q.fill
		kept := (int(q.tail-q.base) + ringPer - 1) / ringPer
		clear(q.chunks[kept:])
		q.chunks = q.chunks[:kept]
		q.fill, q.scan = q.head, q.head
	}
}

// Do runs fn on key's connection, creating it if the key is absent, and
// reports whether this call created it; on a husk it runs straggler with the
// mark instead and does what that returns (a nil straggler keeps). It
// advances the clock, moves the entry it touched to its kind's youngest end
// and runs eviction (capacity, then a bounded idle check) before fn. fn and
// straggler may read Clock — this call's tick — and must not otherwise call
// back into the table. The record fn receives stays put until it settles or
// is evicted.
func (t *Table[F]) Do(key Key, fn func(*F), straggler func(mark uint8) Action) (created bool) {
	t.clock += t.cfg.Tick
	i, r := t.lookup(key)
	switch {
	case r == 0:
		r = t.conns.add(&t.mu, key, t.cfg.New(key), t.clock)
		t.index(r)
		t.n.Created++
		created = true
	case r&huskBit == 0:
		t.conns.touch(r, t.clock)
	default:
		k := r
		r = 0
		act := Keep
		if straggler != nil {
			act = straggler(t.husks.at(k).mark)
		}
		switch act {
		case Revive:
			r = t.conns.add(&t.mu, key, t.cfg.New(key), t.clock)
			t.rewrite(i, r)
			t.vacate(k)
		case Remove:
			t.dropHusk(k, &t.n.Removed)
		default:
			h := t.husks.at(k)
			if k == t.husks.ref(t.husks.tail-1) { // already the youngest
				h.last = uint32(t.clock)
				break
			}
			moved := *h
			moved.last = uint32(t.clock)
			t.rewrite(i, t.husks.push(&t.mu, moved))
			t.vacate(k)
		}
	}
	for t.cfg.MaxFlows > 0 && t.Len() > t.cfg.MaxFlows && t.EvictOldest(key) {
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
// key was a connection, right after the Do that ended it: the husk joins the
// ring's tail stamped with this tick, keeping both kinds in age order, and
// the record goes to Evict. Settling is not an eviction: Live is unchanged.
func (t *Table[F]) Settle(key Key, mark uint8) bool {
	i, r := t.lookup(key)
	if r == 0 || r&huskBit != 0 {
		return false
	}
	h := husk{mark: mark, live: true, last: uint32(t.clock)}
	pack(&h.key, &key)
	k := t.husks.push(&t.mu, h)
	rec := t.conns.at(r).rec
	t.rewrite(i, k)
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
	_, r := t.lookup(key)
	t.mu.Unlock()
	return r != 0
}

// drop takes connection r out of the table, counts it under reason and
// hands its record to Evict.
func (t *Table[F]) drop(r ref, reason *uint64) {
	e := t.conns.at(r)
	key, rec := e.key, e.rec
	t.unindex(r)
	t.conns.release(&t.mu, r)
	*reason++
	t.cfg.Evict(key, rec)
}

// dropHusk takes husk k out of the table and counts it under reason. Its
// record went to Evict when it settled.
func (t *Table[F]) dropHusk(k ref, reason *uint64) {
	t.unindex(k)
	t.vacate(k)
	*reason++
}

// EvictOldest evicts for capacity the least-recently-active husk, or when none
// is left the least-recently-active connection unless it is keep's, and
// reports whether it evicted: a lost husk costs nothing unless a straggler
// comes, a lost connection its scan state mid-stream.
func (t *Table[F]) EvictOldest(keep Key) bool {
	if t.husks.n > 0 {
		t.dropHusk(t.husks.ref(t.husks.head), &t.n.EvictedCap)
		return true
	}
	if c := t.conns.tail; c != 0 && t.conns.at(c).key != keep {
		t.drop(c, &t.n.EvictedCap)
		return true
	}
	return false
}

// dropIdle evicts the least recently active entry of either kind if it has
// idled past IdleTicks, and reports whether it did.
func (t *Table[F]) dropIdle() bool {
	c, now, idle := t.conns.tail, uint32(t.clock), uint32(t.cfg.IdleTicks)
	if t.husks.n > 0 {
		if age := now - t.husks.pos(t.husks.head).last; c == 0 || age > now-t.conns.at(c).last {
			if age <= idle {
				return false
			}
			t.dropHusk(t.husks.ref(t.husks.head), &t.n.EvictedIdle)
			return true
		}
	}
	if c != 0 && now-t.conns.at(c).last > idle {
		t.drop(c, &t.n.EvictedIdle)
		return true
	}
	return false
}

// Remove evicts key's connection or husk immediately, reporting whether it
// was present. The gateway uses it for TCP lifecycle teardown (an RST aborts
// the connection).
func (t *Table[F]) Remove(key Key) bool {
	_, r := t.lookup(key)
	switch {
	case r == 0:
		return false
	case r&huskBit != 0:
		t.dropHusk(r, &t.n.Removed)
	default:
		t.drop(r, &t.n.Removed)
	}
	return true
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
	for t.husks.n > 0 {
		t.dropHusk(t.husks.ref(t.husks.head), &uncounted)
	}
}

// Len returns the number of entries, connections and husks.
func (t *Table[F]) Len() int { return t.conns.n + t.husks.n }

// EntryBytes returns what one connection of a Table[F] occupies in its slab
// and one husk in the ring; their index slots, the ring's holes and the
// unused rest of each chunk are apart (HuskCharge counts them for a husk).
func EntryBytes[F any]() (int, int) {
	return int(unsafe.Sizeof(entry[F]{})), int(unsafe.Sizeof(husk{}))
}

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

// Audit checks the table's structure and returns what it finds broken
// first, or nil: the index holds exactly the live entries of both kinds,
// each where a lookup of its key stops, with every probe run sorted by home
// slot; the connections' LRU list runs both ways through Len − Husks
// entries, and every other slab entry is zeroed on the free list; the ring
// holds Husks husks from its head to its tail in stamp order (while ages are
// below 2³², as idle eviction keeps them), none between compaction's
// cursors, its holes are zeroed and within their bound, and nothing outside
// its span is left in its chunks. Like
// Range, it is the owner's to call.
func (t *Table[F]) Audit() error {
	if len(t.slots)&(len(t.slots)-1) != 0 || 4*t.Len() > 3*len(t.slots) {
		return fmt.Errorf("an index of %d slots holds %d entries", len(t.slots), t.Len())
	}
	q := &t.husks
	if int(q.tail-q.base) > len(q.chunks)*ringPer || q.head-q.base > q.fill-q.base || q.fill-q.base > q.scan-q.base ||
		q.scan-q.base > q.tail-q.base || q.n > 0 && int(q.head-q.base) >= ringPer {
		return fmt.Errorf("a ring from %d to %d, compacting from %d to %d, starts at %d in %d chunks",
			q.head, q.tail, q.scan, q.fill, q.base, len(q.chunks))
	}
	span := int(q.tail - q.head)
	room := len(t.conns.chunks) * t.conns.perChunk
	inSlab := func(r ref) bool {
		c, s := int(r>>chunkBits), int(r&chunkMax)
		return r&huskBit == 0 && c < len(t.conns.chunks) && s > 0 && s <= t.conns.perChunk
	}
	mask := len(t.slots) - 1
	var conns, husks int
	for i, r := range t.slots {
		switch {
		case r == 0:
		case r&huskBit != 0:
			if int((r-q.head)&^huskBit) >= span || !q.at(r).live {
				return fmt.Errorf("index slot %d names ring position %d, a hole", i, r&^huskBit)
			}
			husks++
		case !inSlab(r):
			return fmt.Errorf("index slot %d names connection %d, outside the slab", i, r)
		default:
			conns++
		}
	}
	if conns != t.conns.n || husks != q.n {
		return fmt.Errorf("the index holds %d connections and %d husks, the table counts %d and %d", conns, husks, t.conns.n, q.n)
	}
	dist := func(i int) int { // how far slot i's entry sits from its home, -1 when it is empty
		if t.slots[i] == 0 {
			return -1
		}
		return (i - t.homeOf(t.slots[i])) & mask
	}
	for i, d := 0, dist(0); i < len(t.slots); i++ {
		dn := dist((i + 1) & mask)
		if d >= 0 && dn > d+1 {
			return fmt.Errorf("index slot %d is %d from its home after slot %d at %d: the run is not sorted by home", (i+1)&mask, dn, i, d)
		}
		d = dn
	}
	n, prev := 0, ref(0)
	for r := t.conns.head; r != 0; r = t.conns.at(r).next {
		if !inSlab(r) || n == room {
			return fmt.Errorf("the LRU list leaves the slab or loops at %d, %d entries in", r, n)
		}
		e := t.conns.at(r)
		if e.prev != prev {
			return fmt.Errorf("connection %d links back to %d, not %d", r, e.prev, prev)
		}
		if _, got := t.lookup(e.key); got != r {
			return fmt.Errorf("connection %d (%v): a lookup finds %d", r, e.key, got)
		}
		n, prev = n+1, r
	}
	if t.conns.tail != prev || n != t.conns.n {
		return fmt.Errorf("the LRU list runs through %d connections to %d; the tail is %d and the slab counts %d", n, prev, t.conns.tail, t.conns.n)
	}
	free := 0
	for r := t.conns.free; r != 0; r = t.conns.at(r).next {
		if !inSlab(r) || free == room {
			return fmt.Errorf("the free list leaves the slab or loops at %d", r)
		}
		e := *t.conns.at(r)
		e.next = 0
		if !reflect.ValueOf(e).IsZero() {
			return fmt.Errorf("free connection entry %d is not zeroed", r)
		}
		free++
	}
	if free+n != room {
		return fmt.Errorf("%d chunks hold %d connections and %d free entries: %d lost", len(t.conns.chunks), n, free, room-free-n)
	}
	live, now := 0, uint32(t.clock)
	var older *husk
	for off := 0; off < len(q.chunks)*ringPer; off++ {
		p := q.base + uint32(off)
		h := q.pos(p)
		if in := int(p-q.head) < span; !in || !h.live {
			switch {
			case *h != (husk{}):
				return fmt.Errorf("ring position %d holds neither a husk of the ring nor zeros", p)
			case in && p == q.head:
				return fmt.Errorf("the ring's head %d is a hole", p)
			}
			continue
		}
		if p-q.fill < q.scan-q.fill {
			return fmt.Errorf("ring position %d holds a husk between compaction's cursors %d and %d", p, q.fill, q.scan)
		}
		if older != nil && now-h.last > now-older.last && (t.cfg.IdleTicks > 0 || t.clock < 1<<32) {
			return fmt.Errorf("the husk at ring position %d is stamped %d, after one stamped %d", p, h.last, older.last)
		}
		if _, got := t.lookup(unpack(h.key)); got != q.ref(p) {
			return fmt.Errorf("husk at ring position %d (%v): a lookup finds %d", p, unpack(h.key), got)
		}
		older = h
		live++
	}
	if live != q.n {
		return fmt.Errorf("the ring holds %d husks, the table counts %d", live, q.n)
	}
	if holes := span - live; holes > q.maxHoles() {
		return fmt.Errorf("the ring holds %d holes beside %d husks in %d positions, over %d", holes, live, span, q.maxHoles())
	}
	if q.n == 0 && len(q.chunks) > 1 {
		return fmt.Errorf("an empty ring keeps %d chunks", len(q.chunks))
	}
	return nil
}
