// Package gatepool schedules a pool of recycled callgates (§3.3, §4.1).
//
// A single recycled callgate buys Table 2's throughput (+42% cached, +29%
// uncached) at two costs the paper names: every caller serializes through
// one gate sthread, and "should a recycled callgate be exploited, and
// called by sthreads acting on behalf of different principals, sensitive
// arguments from one caller may become visible to another" (§3.3). The
// pool addresses both by partitioning the hot shared structure:
//
//   - N slots, each owning a private argument tag, one long-lived worker
//     gate draining a ring of argument blocks in that tag (batch.go), and
//     one long-lived recycled gate per nested entry point. Callers bound
//     to different slots never share argument memory at all.
//   - Sharded dispatch: a principal hashes (FNV-1a) to a home slot, so a
//     returning principal reuses the slot still warm with its own
//     residue. A lease binds only to a free slot — one whose worker has
//     nothing waiting and nothing running — preferring a slot warm with
//     the principal, then its home, then any; when none is free it waits
//     in one pool-wide FIFO queue for the first slot to free up.
//   - Inter-principal scrubbing: when a slot passes between principals,
//     the pool zeroes the slot's argument blocks before the new principal
//     can observe them, closing the §3.3 residue channel for argument
//     memory. (A gate's sthread-private heap still persists — the PAM
//     scratch lesson of §5.2 — which is why dispatch prefers principal
//     affinity in the first place.)
//
// Slots can be added and retired at runtime (Resize), the pool can be
// drained to quiescence, and every scheduling decision is counted and
// exported by Stats.
package gatepool

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"wedge/internal/gateabi"
	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// Errors.
var (
	ErrDraining = errors.New("gatepool: pool is draining")
	ErrClosed   = errors.New("gatepool: pool is closed")
	ErrNoGate   = errors.New("gatepool: no gate with that name")
	ErrBadSize  = errors.New("gatepool: pool size out of range")
)

// DefaultArgSize is the argument block size of a pool without a Schema.
const DefaultArgSize = 1024

// GateDef names one recycled entry point every slot instantiates. The
// slot's argument tag is added read-write to SC, so each gate instance can
// reach exactly its own slot's argument blocks. The block's layout is the
// pool's Schema (every gate of a slot shares one layout, so the schema
// lives on the Config, not per gate); entries read and write it through
// the schema's typed field handles.
type GateDef struct {
	Name    string
	SC      *policy.SC // base policy; nil means no privileges beyond the arg tag
	Entry   sthread.GateFunc
	Trusted vm.Addr

	// Batch makes this def the slot's worker: the gate loops
	// run-to-completion over the entries published to the slot's ring
	// (see batch.go). Exactly one def sets it; every other def is a
	// nested gate entered through Lease.Call at Entry.
	Batch sthread.BatchFunc
}

// Config sizes and populates a pool.
type Config struct {
	Name  string // diagnostic prefix for gate sthread names
	Slots int    // initial slot count (default 1); Resize goes up to max(Slots, 64)
	Gates []GateDef

	// Schema, when set, is the declarative layout of every argument
	// block: the block size (and so the inter-principal scrub footprint)
	// derives from it. The serve runtime always populates it; a pool
	// without one gets DefaultArgSize blocks.
	Schema *gateabi.Schema

	// NoScrub disables inter-principal argument scrubbing, reproducing
	// the raw §3.3 exposure. It exists for tests and ablations — the
	// residue tests prove scrubbing is what closes the leak — and should
	// never be set in servers handling multiple principals.
	NoScrub bool
}

// slot is one shard: an argument tag holding the slot's ring, the
// worker gate draining it, and a long-lived recycled gate per nested
// GateDef.
type slot struct {
	index   int
	argTag  tags.Tag
	argBase vm.Addr
	gates   map[string]*sthread.Recycled
	br      *slotRing

	retiring bool // close when the ring drains (pool shrank past this slot)

	// invocations is atomic so Lease.Call stays off the pool lock — it
	// sits on the per-request hot path.
	invocations atomic.Uint64
	// Counters below are read and written under the pool lock.
	scrubs        uint64
	scrubsSkipped uint64 // same-principal consecutive entries that skipped the scrub
	steals        uint64 // leases bound here for principals homed elsewhere
	replaced      uint64 // dead gates replaced by the liveness probe
}

// Pool is a sharded recycled-callgate scheduler. All methods are safe for
// concurrent use.
type Pool struct {
	root     *sthread.Sthread
	cfg      Config
	maxSlots int // Resize ceiling

	mu       sync.Mutex
	freed    *sync.Cond // broadcast when the last lease is released (Drain waits on it)
	retired  *sync.Cond // broadcast whenever a ring's recycle cursor may advance
	slots    []*slot
	draining bool
	closed   bool

	// queue holds unbound leases in acquisition order; leases counts
	// every lease acquired and not yet released, bound or not.
	queue  []*Lease
	leases int

	batchDef  GateDef // the def with Batch set
	entrySize int     // argument block size rounded up to 8

	// Pool-wide counters.
	acquires      uint64
	affinityHits  uint64
	steals        uint64
	waits         uint64 // leases Acquire queued unbound
	scrubs        uint64
	scrubsSkipped uint64
	replaced      uint64
	grown         uint64
	shrunk        uint64
}

// Lease is one session's claim on a slot, from Acquire until Release. A
// lease is bound when it holds an entry in a slot's ring: at Acquire if a
// ring was free, otherwise once a ring takes it from the pool queue after
// CallBatch commits it. Slot, ArgTag, Arg, Scrubbed and Stolen describe
// the binding and are valid only once it exists; a bound lease never
// moves. The holder (and sthreads it creates) may read and write the
// entry's argument block and invoke the slot's nested gates.
type Lease struct {
	Principal string
	Slot      int      // slot index
	ArgTag    tags.Tag // grant this to the sthread that fills the block
	Arg       vm.Addr  // base of the lease's ring entry block
	Scrubbed  bool     // the block was zeroed because the principal changed
	Stolen    bool     // bound off the home slot

	pool *Pool
	s    *slot  // nil while the lease waits unbound in the pool queue
	seq  uint64 // the lease's ring entry on s

	ready chan struct{} // closed when an unbound lease leaves the queue
	err   error         // why an unbound lease left the queue unbound

	committed bool // CallBatch ran
	consumed  bool // the worker (or a dead-worker release) retired the entry
	done      bool // Release ran

	// The commit's demux words and descriptor grant, applied at dispatch.
	connID uint64
	fd     int
	fdPerm kernel.FDPerm
	caller *kernel.Task
}

// New builds a pool on root: root creates every slot's tag and gates, so
// each gate runs with root as its creator exactly as a hand-built recycled
// gate would.
func New(root *sthread.Sthread, cfg Config) (*Pool, error) {
	if len(cfg.Gates) == 0 {
		return nil, errors.New("gatepool: config needs at least one GateDef")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	argSize := DefaultArgSize
	if cfg.Schema != nil {
		argSize = cfg.Schema.Size()
	}
	if cfg.Name == "" {
		cfg.Name = "gatepool"
	}
	p := &Pool{root: root, cfg: cfg, maxSlots: max(cfg.Slots, 64)}
	p.entrySize = (argSize + 7) &^ 7
	workers := 0
	for _, def := range cfg.Gates {
		if def.Batch != nil {
			p.batchDef = def
			workers++
		}
	}
	if workers != 1 {
		return nil, fmt.Errorf("gatepool: pool needs exactly one GateDef with Batch set, got %d", workers)
	}
	p.freed = sync.NewCond(&p.mu)
	p.retired = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Slots; i++ {
		s, err := p.newSlot(i)
		if err != nil {
			p.mu.Lock()
			p.closeSlotsLocked(p.slots)
			p.slots = nil
			p.mu.Unlock()
			return nil, err
		}
		p.slots = append(p.slots, s)
	}
	return p, nil
}

// newSlot allocates one shard: a fresh tag, the ring arena inside it
// (control words, per-entry headers, ringDepth schema-sized entry
// blocks), and one gate per def with the tag added read-write.
func (p *Pool) newSlot(index int) (*slot, error) {
	root := p.root
	argTag, err := root.App().Tags.TagNew(root.Task)
	if err != nil {
		return nil, err
	}
	argBase, err := root.Smalloc(argTag, sthread.BatchRingBytes(ringDepth, p.entrySize))
	if err != nil {
		root.App().Tags.TagDelete(argTag)
		return nil, err
	}
	s := &slot{index: index, argTag: argTag, argBase: argBase,
		gates: make(map[string]*sthread.Recycled, len(p.cfg.Gates))}
	for _, def := range p.cfg.Gates {
		var gate *sthread.Recycled
		var err error
		if def.Batch != nil {
			gate, err = p.newBatchGate(s, def)
		} else {
			gate, err = p.newGate(s, def)
		}
		if err != nil {
			for _, g := range s.gates {
				g.Close()
			}
			root.App().Tags.TagDelete(argTag)
			return nil, err
		}
		s.gates[def.Name] = gate
	}
	return s, nil
}

// gateSC is a def's policy plus read-write access to the slot's tag.
func gateSC(s *slot, def GateDef) (*policy.SC, error) {
	sc := def.SC
	if sc == nil {
		sc = policy.New()
	}
	eff := sc.Clone()
	if err := eff.MemAdd(s.argTag, vm.PermRW); err != nil {
		return nil, err
	}
	return eff, nil
}

// newGate builds one nested gate. Nested gates run inline on the calling
// worker's goroutine: a classic Call is synchronous either way, so the
// inline mode observes identical semantics while skipping the two futex
// handoffs per invocation.
func (p *Pool) newGate(s *slot, def GateDef) (*sthread.Recycled, error) {
	eff, err := gateSC(s, def)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s-%d", p.cfg.Name, def.Name, s.index)
	gate, err := p.root.NewRecycled(name, eff, def.Entry, def.Trusted)
	if err != nil {
		return nil, err
	}
	gate.SetInlineCalls(true)
	return gate, nil
}

// homeFor shards a principal: FNV-1a over the principal name, modulo the
// current slot count.
func homeFor(principal string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(principal))
	return int(h.Sum64() % uint64(n))
}

// Acquire leases a slot for principal without blocking. It binds the
// lease to a free ring when one exists — warm with this principal first,
// then the principal's home slot, then any — and otherwise returns the
// lease unbound, queued in the pool until CallBatch commits it and a ring
// frees. That queue is the pool's only wait; bounding it is the caller's
// admission control (serve's App.Queue).
func (p *Pool) Acquire(principal string) (*Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if p.draining {
		return nil, ErrDraining
	}
	l := &Lease{Principal: principal, pool: p}
	if s, stolen := p.freeRingLocked(principal); s != nil {
		if err := p.bindLocked(l, s, stolen); err != nil {
			return nil, err
		}
	} else {
		l.ready = make(chan struct{})
		p.queue = append(p.queue, l)
		p.waits++
	}
	p.leases++
	p.acquires++
	return l, nil
}

// liveCountLocked counts slots eligible for dispatch.
func (p *Pool) liveCountLocked() int {
	n := 0
	for _, s := range p.slots {
		if !s.retiring {
			n++
		}
	}
	return n
}

// liveSlotLocked returns the i-th non-retiring slot, or nil.
func (p *Pool) liveSlotLocked(i int) *slot {
	for _, s := range p.slots {
		if s.retiring {
			continue
		}
		if i == 0 {
			return s
		}
		i--
	}
	return nil
}

// Gate returns the bound slot's recycled gate with the given name, or nil
// (also for an unbound lease).
func (l *Lease) Gate(name string) *sthread.Recycled {
	if l.s == nil {
		return nil
	}
	return l.s.gates[name]
}

// Call invokes the bound slot's named nested gate on behalf of caller,
// counting the invocation against the slot.
func (l *Lease) Call(name string, caller *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
	g := l.Gate(name)
	if g == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoGate, name)
	}
	l.s.invocations.Add(1)
	return g.Call(caller, arg)
}

// Release ends the lease. Releasing twice is a no-op. A lease released
// before CallBatch gives its reservation back at once; a retiring slot is
// closed by the release that empties its ring.
func (l *Lease) Release() {
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	p.leases--
	if l.s != nil {
		p.releaseRingLocked(l)
	} else if i := slices.Index(p.queue, l); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
		if l.committed {
			l.err = errors.New("gatepool: lease released while waiting for a ring")
			close(l.ready)
		}
	}
	if p.leases == 0 {
		p.freed.Broadcast()
	}
}

// Resize grows or shrinks the pool to n slots. Growth creates fresh slots
// immediately; shrinking retires the highest-indexed slots, closing idle
// ones now and busy ones when their rings drain. A Resize during a Drain
// fails with ErrDraining: Drain's contract is that the pool is quiescent
// when it returns, and slots admitted while it blocks (or between Drain
// and Undrain) would arrive live past that barrier.
func (p *Pool) Resize(n int) error {
	if n < 1 || n > p.maxSlots {
		return fmt.Errorf("%w: %d (max %d)", ErrBadSize, n, p.maxSlots)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.draining {
		return ErrDraining
	}
	// The slot count is recomputed under the lock on every iteration:
	// newSlot runs unlocked (it creates tags and gate sthreads), so a
	// concurrent Resize — or a Drain barrier going up — may have changed
	// the pool meanwhile.
	for p.liveCountLocked() < n {
		idx := p.nextIndexLocked()
		p.mu.Unlock()
		s, err := p.newSlot(idx)
		p.mu.Lock()
		if err != nil {
			return err
		}
		if p.closed || p.draining || p.liveCountLocked() >= n {
			p.closeSlotsLocked([]*slot{s})
			if p.closed {
				return ErrClosed
			}
			if p.draining {
				return ErrDraining
			}
			break
		}
		p.slots = append(p.slots, s)
		p.grown++
		p.bindWaitersLocked()
	}
	for live := p.liveCountLocked(); live > n; live-- {
		// Retire the last live slot.
		var victim *slot
		for _, s := range p.slots {
			if !s.retiring {
				victim = s
			}
		}
		victim.retiring = true
		p.shrunk++
		if victim.br.inflightLocked() == 0 {
			p.removeSlotLocked(victim)
		}
	}
	return nil
}

// nextIndexLocked returns a slot index not currently in use (indices are
// diagnostic; affinity uses position among live slots).
func (p *Pool) nextIndexLocked() int {
	max := -1
	for _, s := range p.slots {
		if s.index > max {
			max = s.index
		}
	}
	return max + 1
}

// removeSlotLocked closes a retiring slot's gates, frees its arena,
// retires its tag, and drops it from the slice.
func (p *Pool) removeSlotLocked(victim *slot) {
	for i, s := range p.slots {
		if s == victim {
			p.slots = append(p.slots[:i], p.slots[i+1:]...)
			break
		}
	}
	p.closeSlotsLocked([]*slot{victim})
}

// closeSlotsLocked tears down slots: gates first (their control tags go
// with them), then the argument tags. Called with p.mu held; gate Close
// blocks only on gates that are idle, which retired slots are.
func (p *Pool) closeSlotsLocked(ss []*slot) {
	for _, s := range ss {
		for _, g := range s.gates {
			g.Close()
		}
		p.root.Sfree(s.argBase)
		p.root.App().Tags.TagDelete(s.argTag)
	}
}

// LiveSlots reports the number of slots eligible for dispatch — cheaper
// than Stats for callers (admission control) that need only the count.
func (p *Pool) LiveSlots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveCountLocked()
}

// MaxSlots reports the Resize ceiling: max(Slots, 64) of the pool's
// Config.
func (p *Pool) MaxSlots() int { return p.maxSlots }

// Drain stops new acquisitions and blocks until every lease has been
// released: the pool is quiescent when it returns. Acquire fails with
// ErrDraining while a drain is in progress. Undrain re-opens the pool.
// Leases already acquired still bind and run.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.draining = true
	for p.leases > 0 {
		p.freed.Wait()
	}
	p.mu.Unlock()
}

// Undrain re-admits acquisitions after a Drain.
func (p *Pool) Undrain() {
	p.mu.Lock()
	p.draining = false
	p.mu.Unlock()
}

// Close drains the pool, shuts every gate down, and retires every tag.
// The pool is unusable afterwards.
func (p *Pool) Close() error {
	p.Drain()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ss := p.slots
	p.slots = nil
	p.closeSlotsLocked(ss)
	p.mu.Unlock()
	return nil
}

// GateStats is one slot's snapshot.
type GateStats struct {
	Slot        int
	Busy        bool // the ring holds an entry not yet retired
	Retiring    bool
	Principal   string // principal of the most recently dispatched entry
	Invocations uint64
	Scrubs      uint64
	// ScrubsSkipped counts consecutive same-principal entries that were
	// dispatched without a scrub — the principal-switch elision.
	ScrubsSkipped uint64
	Steals        uint64
	Replaced      uint64
	// Inflight is the ring's unrecycled entry count.
	Inflight int
}

// Stats is a point-in-time snapshot of the pool's scheduling counters.
type Stats struct {
	Slots    int // live (non-retiring) slots
	Busy     int
	Draining bool
	Closed   bool

	Acquires     uint64
	AffinityHits uint64
	Steals       uint64
	Waits        uint64 // leases Acquire queued unbound for want of a free ring
	// Scrubs counts dispatches and reservations that zeroed another
	// principal's bytes; ScrubsSkipped counts the dispatches that proved
	// a scrub unnecessary (same principal back to back on one ring).
	Scrubs        uint64
	ScrubsSkipped uint64
	Replaced      uint64
	Grown         uint64
	Shrunk        uint64

	// Ring counters: the number of run-to-completion sweeps the workers
	// made, and the entries those sweeps drained — Batches < BatchEntries
	// is the amortization working.
	Batches      uint64
	BatchEntries uint64
	// Backlog is the instantaneous count of committed leases no worker
	// has dispatched yet: those waiting in the pool queue for a free ring
	// plus those published to a ring whose worker has not reached them.
	Backlog int

	Gates []GateStats
}

// Stats returns a consistent snapshot of pool and per-slot counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Slots:    p.liveCountLocked(),
		Draining: p.draining,
		Closed:   p.closed,

		Acquires:      p.acquires,
		AffinityHits:  p.affinityHits,
		Steals:        p.steals,
		Waits:         p.waits,
		Scrubs:        p.scrubs,
		ScrubsSkipped: p.scrubsSkipped,
		Replaced:      p.replaced,
		Grown:         p.grown,
		Shrunk:        p.shrunk,
	}
	for _, l := range p.queue {
		if l.committed {
			st.Backlog++
		}
	}
	for _, s := range p.slots {
		br := s.br
		inflight := br.inflightLocked()
		if inflight > 0 {
			st.Busy++
		}
		st.Batches += br.ring.Batches()
		st.BatchEntries += br.ring.Entries()
		st.Backlog += int(br.pubSeq - br.hookSeq)
		st.Gates = append(st.Gates, GateStats{
			Slot:          s.index,
			Busy:          inflight > 0,
			Retiring:      s.retiring,
			Principal:     br.lastPrincipal,
			Invocations:   s.invocations.Load(),
			Scrubs:        s.scrubs,
			ScrubsSkipped: s.scrubsSkipped,
			Steals:        s.steals,
			Replaced:      s.replaced,
			Inflight:      inflight,
		})
	}
	return st
}
