// Package flowtable maps 5-tuples to per-flow scan state — the
// demultiplexing layer an edge-gateway NIDS needs in front of the string
// matcher. The paper's deployment target scans millions of concurrent
// connections against one shared automaton (§I, §IV.B); the automaton is
// immutable and shared, so the only per-connection cost is the flow's
// scanner registers, and this package owns their lifecycle: lookup-or-create
// keyed by the 5-tuple, LRU tracking of last activity on a logical clock,
// and eviction (capacity and idle) that hands state back to its owner.
//
// The table is safe for fully concurrent ingest. Keys are sharded by
// FiveTuple.Hash64 so unrelated flows never contend; within a shard a
// mutex guards the map and the intrusive LRU list, while each entry carries
// its own mutex serializing flow writes against eviction. An entry selected
// for eviction is first unlinked from its shard (so no new lookup can reach
// it), then closed only after any in-flight write finishes; a writer that
// raced the eviction observes the entry's dead mark and transparently
// retries, creating a fresh flow — an evicted-then-recreated flow therefore
// always starts from clean scanner state.
//
// Time is a logical clock: every Do ticks it once, so "idle for N ticks"
// means "N packets crossed the whole table since this flow last saw one".
// That keeps eviction deterministic and testable, and matches how a
// line-rate gateway actually experiences time — in packets, not seconds.
package flowtable

import (
	"sync"
	"sync/atomic"

	"repro/internal/nids"
)

// Key identifies one flow: the classifier 5-tuple from internal/nids.
type Key = nids.FiveTuple

// Config parameterizes a Table over its flow type F.
type Config[F any] struct {
	// New creates the flow state for a key. Called under the key's shard
	// lock, so it must be cheap (e.g. allocating one record).
	New func(Key) F
	// Evict releases a flow's resources. Called exactly once per created
	// flow — on capacity eviction, idle eviction, or table Close — outside
	// all table locks and never while a Do is using the flow.
	Evict func(Key, F)
	// MaxFlows is the soft cap on live flows; 0 means unlimited. When an
	// insert pushes the table past the cap, least-recently-active flows are
	// evicted from the inserting shard, so the live count stays within
	// MaxFlows + Shards in the worst case.
	MaxFlows int
	// IdleTicks evicts flows untouched for more than this many logical
	// clock ticks (table-wide Do calls); 0 disables idle eviction. Idle
	// flows are collected opportunistically (a bounded check per Do) and
	// exhaustively by EvictIdle.
	IdleTicks uint64
	// Shards is the number of lock shards, rounded up to a power of two;
	// 0 selects 64.
	Shards int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Live        int
	Created     uint64
	EvictedIdle uint64
	EvictedCap  uint64
	Removed     uint64 // explicit Remove calls (connection teardown)
	Clock       uint64
}

// Table is a sharded 5-tuple → flow map with LRU and idle eviction.
type Table[F any] struct {
	cfg    Config[F]
	shards []shard[F]
	mask   uint64

	clock       atomic.Uint64
	live        atomic.Int64
	created     atomic.Uint64
	evictedIdle atomic.Uint64
	evictedCap  atomic.Uint64
	removed     atomic.Uint64
}

type shard[F any] struct {
	mu    sync.Mutex
	flows map[Key]*entry[F]
	// Intrusive LRU list: head is most recently active, tail the least.
	head, tail *entry[F]
}

type entry[F any] struct {
	key        Key
	flow       F
	last       uint64 // shard-lock guarded: logical tick of last activity
	prev, next *entry[F]

	// mu serializes flow use (Do's callback) against eviction; dead marks
	// an entry whose flow has been (or is being) released.
	mu   sync.Mutex
	dead bool
}

// New builds a table. Config.New and Config.Evict are required.
func New[F any](cfg Config[F]) *Table[F] {
	if cfg.New == nil || cfg.Evict == nil {
		panic("flowtable: Config.New and Config.Evict are required")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 64
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	t := &Table[F]{cfg: cfg, shards: make([]shard[F], pow), mask: uint64(pow - 1)}
	for i := range t.shards {
		t.shards[i].flows = make(map[Key]*entry[F])
	}
	return t
}

// Do runs fn on key's flow, creating it if absent, and reports whether this
// call created it. The flow is exclusively held for the duration of fn: no
// other Do on the same key runs concurrently and eviction waits for fn to
// return. Do also ticks the logical clock and touches the flow's LRU
// position. fn must not call back into the table.
func (t *Table[F]) Do(key Key, fn func(F)) (created bool) {
	return t.DoHashed(key, key.Hash64(), fn)
}

// DoHashed is Do with a caller-supplied hash, which must equal
// key.Hash64(). A sharding front-end derives every ownership decision for a
// packet — engine shard, scan lane, and this table's lock shard — from one
// tuple hash; passing it through keeps the table from rehashing the key on
// every packet of every flow.
func (t *Table[F]) DoHashed(key Key, hash uint64, fn func(F)) (created bool) {
	tick := t.clock.Add(1)
	for {
		e, isNew := t.touch(key, hash, tick)
		if t.withEntry(e, fn) {
			return isNew
		}
		// Evicted between lookup and lock; retry against a fresh entry.
	}
}

// withEntry runs fn under e's entry lock, reporting false when e was already
// dead. The unlock is deferred so a panic inside fn (a scanner bug, a hostile
// payload tripping an invariant) unwinds with the entry unlocked — the
// gateway's panic containment can then quarantine the flow with a normal
// Remove instead of deadlocking against a lock the dead goroutine still holds.
func (t *Table[F]) withEntry(e *entry[F], fn func(F)) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return false
	}
	fn(e.flow)
	return true
}

// Has reports whether key's flow is currently live, without creating it,
// touching its LRU position, or ticking the clock. hash must equal
// key.Hash64(). Admission control uses it to distinguish packets of
// established flows from packets that would create new state.
func (t *Table[F]) Has(key Key, hash uint64) bool {
	s := &t.shards[hash&t.mask]
	s.mu.Lock()
	_, ok := s.flows[key]
	s.mu.Unlock()
	return ok
}

// touch looks up or creates key's entry, moves it to the LRU front, and
// runs bounded opportunistic eviction on the entry's shard.
func (t *Table[F]) touch(key Key, hash, tick uint64) (*entry[F], bool) {
	s := &t.shards[hash&t.mask]
	e, created, victims := func() (*entry[F], bool, []*entry[F]) {
		// Deferred unlock: Config.New runs under the shard lock, and a panic
		// there must not wedge the whole shard (see withEntry).
		s.mu.Lock()
		defer s.mu.Unlock()
		e, ok := s.flows[key]
		created := false
		if !ok {
			e = &entry[F]{key: key, flow: t.cfg.New(key)}
			s.flows[key] = e
			t.live.Add(1)
			t.created.Add(1)
			created = true
		} else {
			s.unlink(e)
		}
		e.last = tick
		s.pushFront(e)
		return e, created, t.collect(s, e, tick)
	}()
	t.finish(victims)
	return e, created
}

// collect removes eviction victims from the shard under its lock: first
// capacity pressure (table-wide live count over MaxFlows), then a bounded
// idle check of the shard's LRU tail. keep is never selected.
func (t *Table[F]) collect(s *shard[F], keep *entry[F], tick uint64) []*entry[F] {
	var victims []*entry[F]
	if t.cfg.MaxFlows > 0 {
		for int(t.live.Load()) > t.cfg.MaxFlows {
			v := s.tail
			if v == nil || v == keep {
				break
			}
			s.remove(v)
			t.live.Add(-1)
			t.evictedCap.Add(1)
			victims = append(victims, v)
		}
	}
	if t.cfg.IdleTicks > 0 {
		// Amortized idle collection: at most two tail entries per touch, so
		// a steadily-ticking table drains idle flows without full sweeps.
		// Ticks are drawn before the shard lock, so a concurrent touch can
		// leave v.last ahead of tick; such an entry is fresh by definition
		// and must not fall into the unsigned subtraction.
		for i := 0; i < 2; i++ {
			v := s.tail
			if v == nil || v == keep || v.last > tick || tick-v.last <= t.cfg.IdleTicks {
				break
			}
			s.remove(v)
			t.live.Add(-1)
			t.evictedIdle.Add(1)
			victims = append(victims, v)
		}
	}
	return victims
}

// finish releases victims outside all shard locks: mark dead under the
// entry lock (waiting out any in-flight Do callback), then hand the flow to
// Evict.
func (t *Table[F]) finish(victims []*entry[F]) {
	for _, v := range victims {
		v.mu.Lock()
		v.dead = true
		v.mu.Unlock()
		t.cfg.Evict(v.key, v.flow)
	}
}

// Remove evicts key's flow immediately, reporting whether it was present.
// The gateway uses it for TCP lifecycle teardown (an RST aborts the
// connection): the entry is unlinked under the shard lock, then released
// like any eviction — after any in-flight Do on it has finished.
func (t *Table[F]) Remove(key Key) bool {
	s := &t.shards[key.Hash64()&t.mask]
	s.mu.Lock()
	e, ok := s.flows[key]
	if ok {
		s.remove(e)
		t.live.Add(-1)
		t.removed.Add(1)
	}
	s.mu.Unlock()
	if ok {
		t.finish([]*entry[F]{e})
	}
	return ok
}

// EvictIdle exhaustively evicts every flow idle for more than the
// configured IdleTicks and returns how many it evicted. It is a no-op when
// idle eviction is disabled.
func (t *Table[F]) EvictIdle() int {
	if t.cfg.IdleTicks == 0 {
		return 0
	}
	tick := t.clock.Load()
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		var victims []*entry[F]
		for v := s.tail; v != nil && v.last <= tick && tick-v.last > t.cfg.IdleTicks; v = s.tail {
			s.remove(v)
			t.live.Add(-1)
			t.evictedIdle.Add(1)
			victims = append(victims, v)
		}
		s.mu.Unlock()
		t.finish(victims)
		n += len(victims)
	}
	return n
}

// Range runs fn on every live flow, shard by shard, each flow held under
// its entry lock exactly as Do holds it (no Do on that key runs
// concurrently, eviction waits). Unlike Do it never creates flows, never
// ticks the clock and never touches LRU positions — a pure diagnostic
// sweep, used by the hot-reload control plane's audits (every pinned flow's
// scanner generation matches its pin). Flows created or evicted while the
// sweep runs may or may not be visited; fn must not call back into the
// table.
func (t *Table[F]) Range(fn func(Key, F)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		entries := make([]*entry[F], 0, len(s.flows))
		for _, e := range s.flows {
			entries = append(entries, e)
		}
		s.mu.Unlock()
		for _, e := range entries {
			e.mu.Lock()
			if !e.dead {
				fn(e.key, e.flow)
			}
			e.mu.Unlock()
		}
	}
}

// Close evicts every live flow. The table remains usable afterwards (a Do
// recreates flows), so Close doubles as a drain for gateway shutdown.
func (t *Table[F]) Close() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		var victims []*entry[F]
		for v := s.tail; v != nil; v = s.tail {
			s.remove(v)
			t.live.Add(-1)
			victims = append(victims, v)
		}
		s.mu.Unlock()
		t.finish(victims)
	}
}

// Len returns the number of live flows.
func (t *Table[F]) Len() int { return int(t.live.Load()) }

// Clock returns the logical clock: how many Do calls have ticked the table.
// A caller that timestamps its own per-flow state on the table's clock (the
// gateway's reassembly gap timeout) reads it here, so both timeouts count
// the same packets.
func (t *Table[F]) Clock() uint64 { return t.clock.Load() }

// Stats returns a counter snapshot.
func (t *Table[F]) Stats() Stats {
	return Stats{
		Live:        int(t.live.Load()),
		Created:     t.created.Load(),
		EvictedIdle: t.evictedIdle.Load(),
		EvictedCap:  t.evictedCap.Load(),
		Removed:     t.removed.Load(),
		Clock:       t.clock.Load(),
	}
}

func (s *shard[F]) pushFront(e *entry[F]) {
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

func (s *shard[F]) unlink(e *entry[F]) {
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

func (s *shard[F]) remove(e *entry[F]) {
	s.unlink(e)
	delete(s.flows, e.key)
}
