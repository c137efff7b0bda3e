// The ring dataplane: every slot's argument arena holds a ring of
// schema-sized entry blocks, a producer reserves and commits an entry
// instead of holding the slot exclusively, and one long-lived worker gate
// per slot drains the ring run-to-completion (sthread.NewRecycledBatch).
// The per-call costs this removes: the per-invocation futex round trip
// (one doorbell covers a whole sweep), and the per-call scrub (scrubbing
// happens per principal switch).
//
// The binding rule. A lease binds to a slot's ring only when that ring is
// free: no reserved entry waits there and no body runs there. Otherwise
// the lease waits unbound in the pool's FIFO queue, and once CallBatch
// commits it the first ring to become free takes it (bindWaitersLocked,
// called wherever a ring can free: completion, dispatch abort, release,
// Resize growth). No entry ever waits behind another entry's body, so a
// session blocked inside its body — a held pop3 login, a parked dnsd flow
// — strands nothing: every committed lease either runs on a free ring or
// waits in the one queue that every freeing ring serves. A bound lease
// never moves.
//
// Residue rules. Because nothing waits behind a running body, the worker
// invocation for principal P finds no other principal's pending argument
// bytes in its ring. Before it runs P's entry, every ring position whose
// resident bytes belong to a different principal's finished entry is
// zeroed — the batched analogue of the §3.3 scrub. Consecutive entries
// for the same principal skip that zeroing (ScrubsSkipped), which is the
// warm-slot affinity win the scheduler aims binding at.
package gatepool

import (
	"errors"
	"fmt"
	"slices"

	"wedge/internal/kernel"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// ringDepth is every slot ring's position count. The binding rule bounds
// a ring to two live entries: a lease binds only to a free ring, and an
// entry dispatches only once every earlier entry is released, so at most
// one finished entry whose producer is still unwinding sits beside the
// one entry bound behind it.
const ringDepth = 2

// slotRing is one slot's ring state. All fields are guarded by the pool
// lock except the ring itself, which has its own discipline. A respawned
// worker gets a fresh slotRing.
type slotRing struct {
	ring *sthread.BatchRing

	nextSeq  uint64 // next sequence number to reserve
	pubSeq   uint64 // entries published to the worker
	hookSeq  uint64 // entries the dispatch hook has taken (run or aborted)
	recycled uint64 // entries fully retired (consumed and released), in order

	inBody bool // the worker is inside an entry body right now

	// owner[pos] names the principal whose bytes sit in ring position pos
	// (argument block + header), or "" when the position is clean. Set at
	// reserve, cleared by scrubbing.
	owner [ringDepth]string
	// leases[pos] is the lease holding position pos, valid while its
	// sequence number is unrecycled.
	leases [ringDepth]*Lease

	lastPrincipal string // most recently dispatched principal, for stats
}

func (br *slotRing) inflightLocked() int { return int(br.nextSeq - br.recycled) }

// recycleLocked returns fully retired positions (consumed and released,
// in sequence order) to the free pool.
func (br *slotRing) recycleLocked() {
	for br.recycled < br.nextSeq {
		l := br.leases[br.recycled%ringDepth]
		if !l.consumed || !l.done {
			break
		}
		br.recycled++
	}
}

// newBatchGate builds the slot's ring worker: the ring lives at the
// slot's arena base, and the dispatch/complete hooks give the pool its
// per-entry control points (scrub, demux, fd grant/revoke, recycling).
func (p *Pool) newBatchGate(s *slot, def GateDef) (*sthread.Recycled, error) {
	eff, err := gateSC(s, def)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s-%d", p.cfg.Name, def.Name, s.index)
	gate, ring, err := p.root.NewRecycledBatch(name, eff, def.Batch, sthread.BatchConfig{
		Base:      s.argBase,
		Depth:     ringDepth,
		EntrySize: p.entrySize,
		Trusted:   def.Trusted,
		Hooks: sthread.BatchHooks{
			Dispatch: func(seq uint64) error { return p.batchDispatch(s, seq) },
			Complete: func(seq uint64, ret vm.Addr) { p.batchComplete(s, seq) },
		},
	})
	if err != nil {
		return nil, err
	}
	s.br = &slotRing{ring: ring}
	return gate, nil
}

// ringFreeLocked reports whether s can bind a lease now: no reserved
// entry waits on its ring and no body runs there. A drained ring is free
// even when its worker is dead: binding respawns the worker. By the
// binding rule a ring that is otherwise free holds at most one live
// entry, so the depth arm never fires; it guards that no live position is
// ever rebound.
func (p *Pool) ringFreeLocked(s *slot) bool {
	br := s.br
	switch inflight := br.inflightLocked(); {
	case s.retiring || inflight >= ringDepth:
		return false
	case inflight == 0:
		return true
	}
	return br.hookSeq == br.nextSeq && !br.inBody && s.gates[p.batchDef.Name].Alive()
}

// freeRingLocked picks a free ring for principal, or nil when none is
// free: one still warm with this principal's bytes first, then the
// principal's home slot, then any. The bool reports a pick off the home
// slot.
func (p *Pool) freeRingLocked(principal string) (*slot, bool) {
	n := p.liveCountLocked()
	if n == 0 {
		return nil, false
	}
	home := p.liveSlotLocked(homeFor(principal, n))
	var warm, free *slot
	for _, s := range p.slots {
		if !p.ringFreeLocked(s) {
			continue
		}
		if warm == nil && s.br.lastPrincipal == principal {
			warm = s
		}
		if free == nil || s == home {
			free = s
		}
	}
	pick := warm
	if pick == nil {
		pick = free
	}
	if pick == nil {
		return nil, false
	}
	return pick, pick != home
}

// reviveLocked replaces the slot's dead gates. A dead worker is only
// revived on a drained ring (ringFreeLocked), so its whole arena — stale
// residue included — is reset with it.
func (p *Pool) reviveLocked(s *slot) error {
	for _, def := range p.cfg.Gates {
		g := s.gates[def.Name]
		if g.Alive() {
			continue
		}
		g.Close() // retire the dead gate's control state
		var err error
		if def.Batch != nil {
			size := sthread.BatchRingBytes(ringDepth, p.entrySize)
			if err = p.root.Zero(s.argBase, size); err == nil {
				g, err = p.newBatchGate(s, def)
			}
		} else {
			g, err = p.newGate(s, def)
		}
		if err != nil {
			return fmt.Errorf("gatepool: replacing dead gate %q: %w", def.Name, err)
		}
		s.gates[def.Name] = g
		s.replaced++
		p.replaced++
	}
	return nil
}

// bindLocked reserves the next entry of s's free ring for l. The position
// is scrubbed here if it still holds another principal's bytes, so the
// producer gets a clean block to marshal into.
func (p *Pool) bindLocked(l *Lease, s *slot, stolen bool) error {
	if err := p.reviveLocked(s); err != nil {
		return err
	}
	br := s.br
	seq := br.nextSeq
	pos := int(seq % ringDepth)
	switch owner := br.owner[pos]; {
	case owner == "" || p.cfg.NoScrub:
	case owner != l.Principal:
		if err := p.scrubPosLocked(s, pos); err != nil {
			return fmt.Errorf("gatepool: scrubbing slot %d pos %d: %w", s.index, pos, err)
		}
		l.Scrubbed = true
		s.scrubs++
		p.scrubs++
	default:
		// Reusing a position warm with our own bytes: the affinity win.
		p.affinityHits++
	}
	br.owner[pos] = l.Principal
	br.leases[pos] = l
	br.nextSeq++
	l.s, l.seq = s, seq
	l.Slot, l.ArgTag, l.Arg, l.Stolen = s.index, s.argTag, br.ring.EntryAddr(seq), stolen
	if stolen {
		s.steals++
		p.steals++
	}
	return nil
}

// bindWaitersLocked gives free rings to committed queued leases, oldest
// first, publishing each at once: a worker that binds its next lease in
// its own Complete hook keeps sweeping without parking. Called wherever a
// ring can free, so a committed lease never waits while a ring is free.
func (p *Pool) bindWaitersLocked() {
	for i := 0; i < len(p.queue); {
		l := p.queue[i]
		if !l.committed {
			i++
			continue
		}
		s, stolen := p.freeRingLocked(l.Principal)
		if s == nil {
			return
		}
		p.queue = slices.Delete(p.queue, i, i+1)
		if err := p.bindLocked(l, s, stolen); err != nil {
			l.err = err
		} else {
			s.br.pubSeq = l.seq + 1
			// The error is dropped: the trusted published count moves
			// before the simulated tail store, which fails only on an
			// unmapped arena, and the worker judges by the former.
			_ = s.br.ring.PublishTo(s.br.pubSeq)
		}
		close(l.ready)
	}
}

// scrubPosLocked zeroes one ring position's argument block and header
// and clears its owner.
func (p *Pool) scrubPosLocked(s *slot, pos int) error {
	br := s.br
	if err := p.root.Zero(br.ring.EntryAddr(uint64(pos)), p.entrySize); err != nil {
		return err
	}
	hdr := br.ring.HdrAddr(uint64(pos))
	p.root.Task.AtomicStore64(hdr, 0)
	p.root.Task.AtomicStore64(hdr+8, 0)
	br.owner[pos] = ""
	return nil
}

// CallBatch commits the lease's ring entry and blocks until the slot
// worker completes it, returning the worker's return word. An unbound
// lease first waits in the pool queue until a ring takes it. connID is
// stored into the schema's demux words at dispatch (along with fd, when
// the schema declares them); fd, when non-negative, is granted to the
// worker for the duration of the entry and revoked at completion. If the
// worker is mid-sweep the publish costs no wake at all.
func (l *Lease) CallBatch(caller *sthread.Sthread, connID uint64, fd int, perm kernel.FDPerm) (vm.Addr, error) {
	p := l.pool
	p.mu.Lock()
	if l.done || l.committed {
		p.mu.Unlock()
		return 0, errors.New("gatepool: CallBatch on a released or committed lease")
	}
	l.committed = true
	l.connID, l.fd, l.fdPerm = connID, fd, perm
	if caller != nil {
		l.caller = caller.Task
	}
	if l.s == nil {
		p.bindWaitersLocked() // a ring may have freed since Acquire
		p.mu.Unlock()
		<-l.ready
		if l.s == nil {
			return 0, l.err
		}
		return l.s.br.ring.Await(l.seq)
	}
	br := l.s.br
	br.pubSeq = l.seq + 1
	ring := br.ring
	p.mu.Unlock()
	if err := ring.PublishTo(l.seq + 1); err != nil {
		return 0, err
	}
	return ring.Await(l.seq)
}

// batchDispatch is the worker-side gate into an entry: it runs on the
// worker goroutine just before the body sees the entry, and gives it the
// principal-switch scrub, its demux words, and its fd grant. A failure
// aborts the entry without running untrusted code.
func (p *Pool) batchDispatch(s *slot, seq uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	br := s.br
	// An entry may not dispatch until every earlier entry on this ring is
	// fully retired — consumed by the worker AND released by its producer.
	// After CallBatch returns, the producer is still reading its result
	// bytes and running its per-connection unwind (EndConn); waiting here
	// means a later entry's scrub cannot destroy results a producer has
	// not read, and slot-owned cleanup (e.g. sshd's worker demotion)
	// lands before the next principal's service begins. The wait is
	// producer-unwind-short and does not park the worker's futex. The
	// entry stays undispatched meanwhile, so nothing else binds here.
	for br.recycled < seq {
		p.retired.Wait()
	}
	br.hookSeq = seq + 1
	l := br.leases[seq%ringDepth]
	if err := p.enterLocked(s, l); err != nil {
		p.consumeLocked(s, l)
		p.bindWaitersLocked()
		return err
	}
	br.inBody = true
	br.lastPrincipal = l.Principal
	return nil
}

// enterLocked prepares the ring for l's body. Principal-switch scrub:
// zero every position whose resident bytes belong to a different
// principal. Every other entry of this ring is retired by now (see
// batchDispatch, and nothing binds behind an undispatched entry), so the
// pass can never destroy a pending producer's arguments.
func (p *Pool) enterLocked(s *slot, l *Lease) error {
	br := s.br
	if !p.cfg.NoScrub {
		cur := int(l.seq % ringDepth)
		zeroed, dirtySkipped := false, false
		for pos, owner := range br.owner {
			switch {
			case owner == "" || pos == cur:
			case owner == l.Principal:
				dirtySkipped = true
			default:
				if err := p.scrubPosLocked(s, pos); err != nil {
					return err
				}
				zeroed = true
			}
		}
		if zeroed {
			s.scrubs++
			p.scrubs++
		} else if dirtySkipped {
			s.scrubsSkipped++
			p.scrubsSkipped++
		}
	}

	// Demux words go in after the scrub pass, straight into the entry
	// block the worker is about to read.
	if sch := p.cfg.Schema; sch != nil && sch.HasDemux() {
		arg := br.ring.EntryAddr(l.seq)
		p.root.Store64(arg+sch.ConnIDOff(), l.connID)
		fdw := uint64(0)
		if l.fd >= 0 {
			fdw = uint64(l.fd)
		}
		p.root.Store64(arg+sch.FDOff(), fdw)
	}

	if l.fd >= 0 && l.caller != nil {
		worker := s.gates[p.batchDef.Name].Sthread().Task
		if err := l.caller.ShareFDTo(worker, l.fd, l.fdPerm); err != nil {
			return fmt.Errorf("gatepool: granting fd %d: %w", l.fd, err)
		}
	}
	return nil
}

// batchComplete retires an entry the worker finished: revoke its fd,
// count it, and hand the now-free ring to the oldest committed waiter.
func (p *Pool) batchComplete(s *slot, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	br := s.br
	br.inBody = false
	l := br.leases[seq%ringDepth]
	if l.fd >= 0 {
		s.gates[p.batchDef.Name].Sthread().Task.CloseFD(l.fd)
	}
	s.invocations.Add(1)
	p.consumeLocked(s, l)
	p.bindWaitersLocked()
}

// consumeLocked marks an entry consumed and drives the recycle cursor.
func (p *Pool) consumeLocked(s *slot, l *Lease) {
	l.consumed = true
	s.br.recycleLocked()
	p.retired.Broadcast()
}

// releaseRingLocked is the bound arm of Lease.Release. An uncommitted
// reservation is rolled back: nothing binds behind an undispatched entry,
// so it is always its ring's newest, and no cancelled entry is ever
// published. A committed entry stranded by a dead worker is retired here
// so the ring can drain and the worker respawn. A retiring slot closes
// when its ring empties; otherwise the ring may have freed for a waiter.
func (p *Pool) releaseRingLocked(l *Lease) {
	s := l.s
	br := s.br
	switch {
	case !l.committed:
		br.nextSeq = l.seq
		br.leases[l.seq%ringDepth] = nil
	case !l.consumed && !s.gates[p.batchDef.Name].Alive():
		l.consumed = true
	}
	br.recycleLocked()
	p.retired.Broadcast()
	if s.retiring && br.inflightLocked() == 0 {
		p.removeSlotLocked(s)
		return
	}
	p.bindWaitersLocked()
}
