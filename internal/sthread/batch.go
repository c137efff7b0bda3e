// Batched recycled callgates: the run-to-completion dataplane half of
// the recycled protocol. Instead of one generation word and one blocking
// futex round-trip per invocation, a batch-mode gate drains a ring of
// gateabi-laid-out argument blocks living in its caller's arena. The
// producer publishes entries by bumping the ring's tail word and rings
// the doorbell futex at most once per publish — and only when the worker
// is actually parked — so one FutexWake covers every pending entry and a
// busy worker is never woken at all. The worker loops run-to-completion
// until the ring drains, then parks on the tail word again.
//
// Trust model: everything in the ring is simulated memory the gate can
// scribble on, so nothing the host relies on is read back from it. The
// host keeps trusted shadows (published count, per-position completion
// sequence numbers, return words) on its side of the boundary; the
// simulated tail/head/status words exist for protocol fidelity and for
// hostile-worker fuzzing, but a worker forging them can at worst wake
// the wrong sleeper — it cannot release a producer before the host-side
// Complete hook (descriptor revocation, teardown) has run, and it cannot
// steer the host to read or scrub outside the ring segment, because
// every host-computed address derives from geometry fixed at creation.

package sthread

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/vm"
)

// Ring-word offsets, relative to the ring base. The tail is the
// producer-published entry count and the doorbell futex word; the head
// is the worker's consumed count, published for observability only.
// Per-entry headers (status word, return word) follow, then the
// argument blocks themselves.
const (
	brTail = 0  // producer-published entry count (doorbell futex word)
	brStop = 8  // nonzero requests worker shutdown
	brHead = 16 // worker-consumed entry count (observability only)
	brHdrs = 24 // per-entry headers start here

	batchHdrSize = 16 // per-entry header: status word + return word

	// Status-word values. Like the head word these record protocol state
	// in simulated memory; the trusted completion signal is host-side.
	batchPending = 0
	batchDone    = 1
	batchAborted = 2
)

// ErrBatchAborted reports that a ring entry was aborted at dispatch —
// its Dispatch hook failed — so the worker body never ran for it.
var ErrBatchAborted = errors.New("sthread: batch entry aborted before dispatch")

// BatchRingBytes returns the arena footprint of a ring: three control
// words, depth per-entry headers, depth argument blocks of entrySize
// bytes each. entrySize must be 8-aligned.
func BatchRingBytes(depth, entrySize int) int {
	return brHdrs + depth*(batchHdrSize+entrySize)
}

// BatchHooks are host-side callbacks run on the worker goroutine at the
// trust boundary of each ring entry. Dispatch runs before the worker
// body sees entry seq — this is where a pool scrubs the block, grants
// descriptors and writes demux words; a Dispatch error aborts the entry
// without running untrusted code. Complete runs after the worker body
// finishes entry seq and before the producer's Await can return —
// descriptor revocation and connection teardown are ordered before the
// producer no matter what the worker writes into simulated memory.
type BatchHooks struct {
	Dispatch func(seq uint64) error
	Complete func(seq uint64, ret vm.Addr)
}

// BatchFunc is the worker body of a batch-mode gate: invoked once per
// doorbell, it loops b.More()/b.Complete() until the ring drains, then
// returns to park. trusted is the kernel-held trusted argument, exactly
// as for GateFunc.
type BatchFunc func(g *Sthread, b *Batch, trusted vm.Addr)

// BatchConfig fixes a ring's geometry. Base must be 8-aligned and the
// ring [Base, Base+BatchRingBytes(Depth, EntrySize)) must lie inside
// memory granted read-write to both the creator and the gate policy —
// for a pool, the slot arena.
type BatchConfig struct {
	Base      vm.Addr
	Depth     int
	EntrySize int
	Trusted   vm.Addr
	Hooks     BatchHooks
}

// BatchRing is the host-side handle on a batch-mode gate's ring: the
// producer face (Publish, Await) plus the trusted shadows the protocol
// is judged by.
type BatchRing struct {
	base      vm.Addr
	depth     uint64
	entrySize uint64
	hooks     BatchHooks

	creator *Sthread
	gate    *Recycled

	// mu serializes producers publishing into the ring.
	mu        sync.Mutex
	published atomic.Uint64 // trusted count of entries visible to the worker
	parked    atomic.Bool   // worker is (or may be about to be) asleep on the doorbell

	// stopped is closed by Close and aborts a doorbell park in flight.
	// The stop word alone cannot: it is not the futex word, so a store
	// to it between the worker's stop check and its sleep would be a
	// lost wakeup — the publish path closes that window with the tail
	// value check, and shutdown closes it with this channel.
	stopped chan struct{}

	// Per-position trusted completion shadows, written only by host hook
	// code on the worker goroutine: position p holds seq+1 once entry seq
	// completed (doneSeq, with its return word in retVal) or was aborted
	// at dispatch (abortSeq). waitCh[p] carries the completion token to
	// the single producer that can be awaiting position p.
	doneSeq  []atomic.Uint64
	abortSeq []atomic.Uint64
	retVal   []atomic.Uint64
	waitCh   []chan struct{}

	batches atomic.Uint64 // non-empty run-to-completion sweeps
	entries atomic.Uint64 // entries dispatched to the worker body
}

// NewRecycledBatch creates a batch-mode recycled gate: a long-lived
// sthread running with policy gateSC, entered at fn whenever its ring
// has pending entries. Unlike NewRecycled there is no private control
// tag — all protocol words live in the caller-provided ring segment,
// which gateSC must already reach. The same recycling caveat applies,
// amplified: the ring persists across principals, so callers must scrub
// on principal switches (the Dispatch hook is the place).
func (s *Sthread) NewRecycledBatch(name string, gateSC *policy.SC, fn BatchFunc, cfg BatchConfig) (*Recycled, *BatchRing, error) {
	if gateSC == nil {
		gateSC = policy.New()
	}
	if err := s.checkRecycledSC(name, gateSC); err != nil {
		return nil, nil, err
	}
	if cfg.Depth <= 0 || cfg.EntrySize <= 0 || cfg.EntrySize%8 != 0 || cfg.Base%8 != 0 {
		return nil, nil, fmt.Errorf("recycled batch %q: bad ring geometry (depth %d, entry size %d, base %#x)",
			name, cfg.Depth, cfg.EntrySize, uint64(cfg.Base))
	}

	ring := &BatchRing{
		base:      cfg.Base,
		depth:     uint64(cfg.Depth),
		entrySize: uint64(cfg.EntrySize),
		hooks:     cfg.Hooks,
		creator:   s,
		stopped:   make(chan struct{}),
		doneSeq:   make([]atomic.Uint64, cfg.Depth),
		abortSeq:  make([]atomic.Uint64, cfg.Depth),
		retVal:    make([]atomic.Uint64, cfg.Depth),
		waitCh:    make([]chan struct{}, cfg.Depth),
	}
	for i := range ring.waitCh {
		ring.waitCh[i] = make(chan struct{}, 1)
	}

	// Zero the control words and headers before the gate starts: the
	// segment may be a reused arena (a respawn after a worker fault) with
	// stale protocol state in it.
	ct := s.Task
	for off := vm.Addr(0); off < brHdrs+vm.Addr(cfg.Depth)*batchHdrSize; off += 8 {
		if err := ct.AtomicStore64(cfg.Base+off, 0); err != nil {
			return nil, nil, err
		}
	}

	gate, err := s.prepareConfinedGate(name, gateSC, gateSC.Clone())
	if err != nil {
		return nil, nil, err
	}

	r := &Recycled{
		Name:    name,
		app:     s.app,
		gate:    gate,
		creator: s,
		ring:    ring,
	}
	ring.gate = r

	gate.Task.Start(func(*kernel.Task) {
		r.serveBatch(gate, fn, cfg.Trusted)
	})
	return r, ring, nil
}

// Ring returns the gate's ring handle, or nil for a classic gate.
func (r *Recycled) Ring() *BatchRing { return r.ring }

// Depth returns the ring's entry count.
func (r *BatchRing) Depth() int { return int(r.depth) }

// EntrySize returns the ring's per-entry argument-block size.
func (r *BatchRing) EntrySize() int { return int(r.entrySize) }

// Base returns the ring's base address in the caller's arena.
func (r *BatchRing) Base() vm.Addr { return r.base }

// Batches returns the number of non-empty run-to-completion sweeps the
// worker has made; Entries the number of entries dispatched. Their ratio
// is the realized batch size.
func (r *BatchRing) Batches() uint64 { return r.batches.Load() }

// Entries returns the number of ring entries dispatched to the worker.
func (r *BatchRing) Entries() uint64 { return r.entries.Load() }

// EntryAddr returns the argument-block address of the ring position
// serving seq. The address derives only from geometry fixed at creation
// — never from simulated words — so a hostile worker cannot steer the
// host outside the ring segment.
func (r *BatchRing) EntryAddr(seq uint64) vm.Addr {
	return r.base + brHdrs + vm.Addr(r.depth*batchHdrSize) + vm.Addr((seq%r.depth)*r.entrySize)
}

// HdrAddr returns the status/return header address of the ring position
// serving seq. Like EntryAddr it derives only from fixed geometry; pools
// include the header in the per-position scrub footprint, since return
// words are worker-written bytes like any others.
func (r *BatchRing) HdrAddr(seq uint64) vm.Addr { return r.hdrAddr(seq) }

func (r *BatchRing) hdrAddr(seq uint64) vm.Addr {
	return r.base + brHdrs + vm.Addr((seq%r.depth)*batchHdrSize)
}

// HdrSize is the per-entry header footprint (status word + return word).
const HdrSize = batchHdrSize

// PublishTo makes every entry below seq visible to the worker and rings
// the doorbell at most once — and not at all if the worker is already
// awake, which is the whole amortization: under load the worker never
// parks and producers never pay a futex wake. The count is absolute and
// monotone, so racing producers may publish their contiguous-committed
// watermarks in either order. Entry state for everything below seq must
// be fully written before the call.
func (r *BatchRing) PublishTo(seq uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq <= r.published.Load() {
		return nil
	}
	r.published.Store(seq)
	// Tail store before the parked check: the worker sets parked before
	// re-checking the published count, so either we see it parked and
	// wake it, or it sees our count and skips the sleep.
	if err := r.creator.Task.AtomicStore64(r.base+brTail, seq); err != nil {
		return err
	}
	if r.parked.Load() {
		r.creator.Task.FutexWake(r.base+brTail, 1)
	}
	return nil
}

// Await blocks until entry seq completes, returning the worker body's
// return word, or fails: ErrBatchAborted if the entry was aborted at
// dispatch, ErrGateExited if the gate died first. Completion is judged
// by the trusted host-side shadows — the simulated status word plays no
// part — so the Complete hook is strictly ordered before Await returns.
// Both checks are exact: a position's shadows are shared by every seq
// that serves there, but a position cannot be reused until its producer
// returns from Await and releases, so no later seq can overwrite them
// while this one waits.
func (r *BatchRing) Await(seq uint64) (vm.Addr, error) {
	pos := seq % r.depth
	gdone := r.gate.gate.Task.Done()
	for {
		if r.doneSeq[pos].Load() == seq+1 {
			return vm.Addr(r.retVal[pos].Load()), nil
		}
		if r.abortSeq[pos].Load() == seq+1 {
			return 0, ErrBatchAborted
		}
		select {
		case <-r.waitCh[pos]:
			// A completion token — possibly stale from an earlier entry
			// whose producer returned via the shadow check alone; the
			// shadow re-check at the top settles it either way.
		case <-gdone:
			// The gate died. A completion racing with death published its
			// shadow before we got here, so one re-check distinguishes
			// "finished then died" from "died with the entry pending".
			if r.doneSeq[pos].Load() != seq+1 && r.abortSeq[pos].Load() != seq+1 {
				return 0, ErrGateExited
			}
		}
	}
}

// Batch is the worker-side cursor over pending ring entries. It is only
// valid inside the BatchFunc invocation it was passed to.
type Batch struct {
	ring     *BatchRing
	g        *Sthread
	consumed uint64 // entries dispatched or aborted, cumulative
	seq      uint64
	inEntry  bool
	swept    int // entries dispatched in the current sweep
}

// More advances to the next pending entry, completing the current one
// with return word 0 if the body forgot to. It runs the Dispatch hook
// for each candidate — entries the hook rejects are aborted and skipped
// — and returns false when the ring is drained.
func (b *Batch) More() bool {
	if b.inEntry {
		b.Complete(0)
	}
	r := b.ring
	for b.consumed < r.published.Load() {
		seq := b.consumed
		if h := r.hooks.Dispatch; h != nil {
			if err := h(seq); err != nil {
				b.consumed++
				b.finish(seq, 0, batchAborted)
				continue
			}
		}
		b.seq = seq
		b.inEntry = true
		b.swept++
		r.entries.Add(1)
		return true
	}
	b.g.Task.AtomicStore64(r.base+brHead, b.consumed)
	return false
}

// Seq returns the current entry's sequence number.
func (b *Batch) Seq() uint64 { return b.seq }

// Arg returns the current entry's argument-block address — the batched
// counterpart of GateFunc's arg parameter, laid out by the same schema.
func (b *Batch) Arg() vm.Addr { return b.ring.EntryAddr(b.seq) }

// Complete finishes the current entry with return word ret: the header
// is updated, the Complete hook runs, and only then is the producer
// released through the trusted shadow.
func (b *Batch) Complete(ret vm.Addr) {
	if !b.inEntry {
		return
	}
	b.inEntry = false
	seq := b.seq
	b.consumed++
	if h := b.ring.hooks.Complete; h != nil {
		h(seq, ret)
	}
	b.finish(seq, ret, batchDone)
}

// finish records an entry's outcome in the simulated header and releases
// the producer: return word and shadow first, status and token last.
func (b *Batch) finish(seq uint64, ret vm.Addr, status uint64) {
	r := b.ring
	pos := seq % r.depth
	hdr := r.hdrAddr(seq)
	b.g.Task.AtomicStore64(hdr+8, uint64(ret))
	b.g.Task.AtomicStore64(hdr, status)
	if status == batchDone {
		r.retVal[pos].Store(uint64(ret))
		r.doneSeq[pos].Store(seq + 1)
	} else {
		r.abortSeq[pos].Store(seq + 1)
	}
	select {
	case r.waitCh[pos] <- struct{}{}:
	default:
	}
}

// serveBatch is the batch-mode gate loop: park on the doorbell, sweep
// the ring run-to-completion through the worker body, repeat.
func (r *Recycled) serveBatch(g *Sthread, fn BatchFunc, trusted vm.Addr) {
	ring := r.ring
	b := &Batch{ring: ring, g: g}
	for {
		// Park until the doorbell moves past what we've consumed. The
		// trusted published count decides; the tail word is the futex
		// value a producer's store will change.
		for {
			if stop, err := g.Task.AtomicLoad64(ring.base + brStop); err != nil || stop != 0 {
				return
			}
			tail, err := g.Task.AtomicLoad64(ring.base + brTail)
			if err != nil {
				return
			}
			if ring.published.Load() > b.consumed {
				break
			}
			ring.parked.Store(true)
			// Re-check under the parked flag: Publish stores the tail
			// before reading the flag, so either it sees us parked and
			// wakes, or we see its count here and skip the sleep.
			if ring.published.Load() > b.consumed {
				ring.parked.Store(false)
				break
			}
			g.Task.FutexWaitAbort(ring.base+brTail, uint32(tail), ring.stopped)
			ring.parked.Store(false)
		}
		start := b.consumed
		b.swept = 0
		fn(g, b, trusted)
		if b.inEntry {
			b.Complete(0)
		}
		if b.consumed == start {
			// The body returned without consuming work that was pending
			// when the sweep began: a broken (or hostile) body. Exit so
			// producers abort on a dead gate instead of wedging on a
			// stuck one — pools replace dead gates.
			return
		}
		if b.swept > 0 {
			ring.batches.Add(1)
		}
	}
}
