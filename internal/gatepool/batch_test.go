package gatepool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// batchEcho is the standard batched worker body: each entry's first word
// incremented into its second, the entry's own value returned.
func batchEcho(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
	for b.More() {
		v := g.Load64(b.Arg())
		g.Store64(b.Arg()+8, v+1)
		b.Complete(vm.Addr(v))
	}
}

func newBatchPool(t *testing.T, root *sthread.Sthread, slots int, body sthread.BatchFunc, noScrub bool) *Pool {
	t.Helper()
	p, err := New(root, Config{
		Name:    "btest",
		Slots:   slots,
		NoScrub: noScrub,
		Gates: []GateDef{
			{Name: "worker", SC: policy.New(), Batch: body},
			{Name: "echo", SC: policy.New(), Entry: echoGate},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// batchSession acquires, marshals one word, commits, awaits, releases.
func batchSession(t *testing.T, p *Pool, root *sthread.Sthread, principal string, v uint64) uint64 {
	t.Helper()
	l, err := p.Acquire(principal)
	if err != nil {
		t.Fatalf("acquire %s: %v", principal, err)
	}
	defer l.Release()
	root.Store64(l.Arg, v)
	ret, err := l.CallBatch(root, 0, -1, 0)
	if err != nil {
		t.Fatalf("callbatch %s: %v", principal, err)
	}
	if got := root.Load64(l.Arg + 8); got != v+1 {
		t.Fatalf("entry result = %d, want %d", got, v+1)
	}
	return uint64(ret)
}

func TestBatchPoolRoundTrip(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newBatchPool(t, root, 2, batchEcho, false)
		defer p.Close()
		// Push more sessions than slots*depth so positions recycle.
		for i := uint64(0); i < 20; i++ {
			if ret := batchSession(t, p, root, "alice", 100+i); ret != 100+i {
				t.Fatalf("ret = %d", ret)
			}
		}
		st := p.Stats()
		if st.Acquires != 20 || st.Busy != 0 {
			t.Fatalf("acquires=%d busy=%d", st.Acquires, st.Busy)
		}
		if st.BatchEntries != 20 {
			t.Fatalf("batch entries = %d", st.BatchEntries)
		}
	})
}

// TestBatchPoolScrubOnSwitch checks the principal-switch scrub and the
// same-principal skip, and that skips never happen across a switch.
func TestBatchPoolScrubOnSwitch(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newBatchPool(t, root, 1, batchEcho, false)
		defer p.Close()
		// alice twice (same position reuse is a skip candidate on the
		// second dispatch once her first entry's residue is resident),
		// then bob (his dispatch must scrub alice's finished positions).
		batchSession(t, p, root, "alice", 1)
		batchSession(t, p, root, "alice", 2)
		st := p.Stats()
		if st.ScrubsSkipped == 0 {
			t.Fatalf("no scrub skip on consecutive same-principal entries: %+v", st)
		}
		scrubsBefore := st.Scrubs
		batchSession(t, p, root, "bob", 30)
		st = p.Stats()
		if st.Scrubs == scrubsBefore {
			t.Fatalf("no scrub on principal switch: %+v", st)
		}
		// Once bob has dispatched, neither ring position may hold alice's
		// words (1 -> 2 and 2 -> 3): one holds bob's finished entry, the
		// other was scrubbed.
		l, err := p.Acquire("bob")
		if err != nil {
			t.Fatal(err)
		}
		for pos := uint64(0); pos < ringDepth; pos++ {
			addr := l.s.br.ring.EntryAddr(pos)
			for off := vm.Addr(0); off < 16; off += 8 {
				if w := root.Load64(addr + off); w >= 1 && w <= 3 {
					t.Fatalf("alice residue %#x at pos %d off %d after bob's dispatch", w, pos, off)
				}
			}
		}
		l.Release()
	})
}

// TestBatchPoolSkipNeverSurvivesReassignment: the same-principal scrub
// skip is warm-slot state, and it must die with the slot. A principal
// whose warm slot is retired by a shrink and replaced by a grow must not
// carry a skip onto the replacement (the warm state was never there),
// and a principal landing on a surviving slot that holds another
// principal's finished bytes must take the scrub path, never a skip —
// across a Drain/Undrain cycle in between.
func TestBatchPoolSkipNeverSurvivesReassignment(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newBatchPool(t, root, 2, batchEcho, false)
		defer p.Close()
		// Principals routed by home shard: P homes on slot 1 (the slot a
		// shrink retires), Q and R on slot 0 (the slot that survives).
		pick := func(home int, avoid string) string {
			for i := 0; ; i++ {
				name := fmt.Sprintf("principal-%d", i)
				if name != avoid && homeFor(name, 2) == home {
					return name
				}
			}
		}
		P := pick(1, "")
		Q := pick(0, "")
		R := pick(0, Q)

		batchSession(t, p, root, P, 1)
		batchSession(t, p, root, P, 2) // same slot, same principal: the one legitimate skip
		batchSession(t, p, root, Q, 3) // plants Q's bytes on the surviving slot
		st := p.Stats()
		if st.ScrubsSkipped != 1 {
			t.Fatalf("warm-up skips = %d, want exactly 1: %+v", st.ScrubsSkipped, st)
		}
		skipsBefore, scrubsBefore := st.ScrubsSkipped, st.Scrubs

		// Retire P's warm slot (a shrink retires the last live slot) and
		// grow a fresh replacement; the Drain/Undrain cycle in between
		// must not perturb any of it.
		if err := p.Resize(1); err != nil {
			t.Fatalf("shrink: %v", err)
		}
		p.Drain()
		p.Undrain()
		if err := p.Resize(2); err != nil {
			t.Fatalf("grow: %v", err)
		}

		// P's home shard now resolves to the replacement slot: its first
		// dispatch there must not count a skip — the warm state died with
		// the retired slot.
		batchSession(t, p, root, P, 4)
		if st := p.Stats(); st.ScrubsSkipped != skipsBefore {
			t.Fatalf("skip leaked across the slot reassignment: %+v", st)
		}
		// Back-to-back on the replacement the skip is legitimate again:
		// rebuilt from P's own new bytes, not inherited.
		batchSession(t, p, root, P, 5)
		if st := p.Stats(); st.ScrubsSkipped != skipsBefore+1 {
			t.Fatalf("no skip on consecutive same-principal entries after the rebuild: %+v", st)
		}

		// R homes on the surviving slot, where Q's finished bytes still
		// sit: a genuine principal switch, so R's dispatch must scrub and
		// must not skip.
		batchSession(t, p, root, R, 6)
		st = p.Stats()
		if st.Scrubs == scrubsBefore {
			t.Fatalf("no scrub dispatching %s over %s's finished bytes: %+v", R, Q, st)
		}
		if st.ScrubsSkipped != skipsBefore+1 {
			t.Fatalf("bogus skip on a principal switch: %+v", st)
		}
		// Q's position on the surviving slot must read zero after R ran.
		p.mu.Lock()
		addr := p.liveSlotLocked(0).br.ring.EntryAddr(0)
		p.mu.Unlock()
		for off := vm.Addr(0); off < 16; off += 8 {
			if w := root.Load64(addr + off); w != 0 {
				t.Fatalf("%s residue %#x at off %d after %s's dispatch", Q, w, off, R)
			}
		}
	})
}

// TestBatchPoolNestedClassicGate drives the classic Call protocol from
// inside a batch body, the shape every pooled app's nested gates use.
func TestBatchPoolNestedClassicGate(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		var p *Pool
		var lease *Lease
		var mu sync.Mutex
		body := func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				mu.Lock()
				l := lease
				mu.Unlock()
				ret, err := l.Call("echo", g, b.Arg())
				if err != nil || ret != 1 {
					b.Complete(0)
					continue
				}
				b.Complete(1)
			}
		}
		p = newBatchPool(t, root, 1, body, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		lease = l
		mu.Unlock()
		root.Store64(l.Arg, 7)
		ret, err := l.CallBatch(root, 0, -1, 0)
		if err != nil || ret != 1 {
			t.Fatalf("CallBatch = %v, %v", ret, err)
		}
		if got := root.Load64(l.Arg + 8); got != 8 {
			t.Fatalf("nested echo wrote %d, want 8", got)
		}
		l.Release()
	})
}

// TestBatchPoolStealRescue wedges one slot's worker inside a body and
// runs stepper sessions while the wedge holds: none may bind behind the
// wedged body — each either binds a free sibling ring at Acquire or waits
// in the pool queue until the sibling frees — so all complete while the
// wedged body never returns. This is the liveness property serve's drain
// and resize semantics depend on.
func TestBatchPoolStealRescue(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		block := make(chan struct{})
		started := make(chan struct{})
		var once sync.Once
		step := make(chan struct{}, 8)
		body := func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				v := g.Load64(b.Arg())
				switch v {
				case 999:
					once.Do(func() { close(started) })
					<-block // wedge this invocation for the whole test
				case 777:
					<-step // hold until the test releases the steppers
				}
				g.Store64(b.Arg()+8, v+1)
				b.Complete(vm.Addr(v))
			}
		}
		p := newBatchPool(t, root, 2, body, false)
		defer p.Close()

		// Wedge one slot.
		held, err := p.Acquire("holder")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(held.Arg, 999)
		heldDone := make(chan struct{})
		go func() {
			held.CallBatch(root, 0, -1, 0)
			held.Release()
			close(heldDone)
		}()
		<-started

		// Three steppers: the first binds the free slot and blocks in its
		// body; the rest find no free ring and queue in the pool.
		var wg sync.WaitGroup
		slots := make(chan int, 3)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l, err := p.Acquire(fmt.Sprintf("stepper-%d", i))
				if err != nil {
					t.Errorf("stepper %d acquire: %v", i, err)
					return
				}
				defer l.Release()
				if l.Arg != 0 {
					root.Store64(l.Arg, 777)
				}
				if _, err := l.CallBatch(root, 0, -1, 0); err != nil {
					t.Errorf("stepper %d: %v", i, err)
				}
				slots <- l.Slot
			}(i)
		}
		// Wait for all steppers to hold their leases, then let them run.
		for p.Stats().Acquires < 4 {
			runtime.Gosched()
		}
		for i := 0; i < 3; i++ {
			step <- struct{}{}
		}
		wg.Wait() // every stepper completed while the wedge is still held
		close(slots)
		for s := range slots {
			if s == held.Slot {
				t.Errorf("a stepper ran on the wedged slot %d", s)
			}
		}
		if st := p.Stats(); st.Gates[held.Slot].Inflight != 1 || st.Backlog != 0 {
			t.Fatalf("after the steppers: %+v", st)
		}
		close(block)
		<-heldDone
	})
}

// TestPoolFreeRingTakesQueuedLease pins the wedge a queue-on-a-busy-slot
// placement caused: with both workers held in bodies a third lease has no
// free ring, and it must wait unbound rather than reserve behind either
// body. Once slot 1's body finishes and its worker parks, committing the
// third lease must run it on slot 1 while slot 0 is still held.
func TestPoolFreeRingTakesQueuedLease(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		release := []chan struct{}{make(chan struct{}), make(chan struct{})}
		entered := make(chan uint64, 2)
		body := func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				if k := g.Load64(b.Arg()); k > 0 {
					entered <- k
					<-release[k-1]
				}
				b.Complete(1)
			}
		}
		p := newBatchPool(t, root, 2, body, false)
		defer p.Close()

		// Hold both workers; release[k] frees the body on slot k.
		heldDone := make(chan int, 2)
		slots := map[int]bool{}
		for i := 0; i < 2; i++ {
			l, err := p.Acquire(fmt.Sprintf("held-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			slots[l.Slot] = true
			root.Store64(l.Arg, uint64(l.Slot+1))
			go func() {
				l.CallBatch(root, 0, -1, 0)
				l.Release()
				heldDone <- l.Slot
			}()
			<-entered
		}
		if !slots[0] || !slots[1] {
			t.Fatalf("held sessions bound slots %v, want 0 and 1", slots)
		}

		third, err := p.Acquire("third")
		if err != nil {
			t.Fatal(err)
		}
		defer third.Release()

		// Finish slot 1's body and wait until its worker has ended the
		// sweep and parked.
		close(release[1])
		if s := <-heldDone; s != 1 {
			t.Fatalf("slot %d's session finished, want slot 1's", s)
		}
		for p.Stats().Batches < 1 {
			runtime.Gosched()
		}

		done := make(chan error, 1)
		go func() {
			_, err := third.CallBatch(root, 0, -1, 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("third CallBatch: %v", err)
			}
		case <-time.After(10 * time.Second):
			st := p.Stats()
			close(release[0]) // let slot 0 finish so the pool can close
			<-done
			t.Fatalf("the third lease never ran while slot 1 was free: %+v", st)
		}
		if third.Slot != 1 {
			t.Fatalf("third lease ran on slot %d, want the freed slot 1", third.Slot)
		}
		close(release[0])
		<-heldDone
	})
}

// TestBatchPoolQueuedLeasesKeepSweep: a worker that completes an entry
// binds the oldest committed queued lease in its Complete hook and keeps
// sweeping without parking, so one doorbell covers the whole queue.
func TestBatchPoolQueuedLeasesKeepSweep(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		hold := make(chan struct{})
		body := func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				if g.Load64(b.Arg()) == 999 {
					<-hold
				}
				b.Complete(1)
			}
		}
		p := newBatchPool(t, root, 1, body, false)
		defer p.Close()
		held, err := p.Acquire("holder")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(held.Arg, 999)
		heldDone := make(chan struct{})
		go func() {
			held.CallBatch(root, 0, -1, 0)
			held.Release()
			close(heldDone)
		}()
		const queued = 3
		var wg sync.WaitGroup
		for i := 0; i < queued; i++ {
			l, err := p.Acquire(fmt.Sprintf("queued-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if l.Arg != 0 {
				t.Fatalf("lease %d bound a busy ring", i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer l.Release()
				if _, err := l.CallBatch(root, 0, -1, 0); err != nil {
					t.Error(err)
				}
			}()
		}
		waitBacklog := func(n int) {
			for p.Stats().Backlog != n {
				runtime.Gosched()
			}
		}
		waitBacklog(queued)
		close(hold)
		<-heldDone
		wg.Wait()
		st := p.Stats()
		if st.BatchEntries != queued+1 || st.Batches != 1 {
			t.Fatalf("batches=%d entries=%d, want one sweep over %d entries", st.Batches, st.BatchEntries, queued+1)
		}
		if st.Busy != 0 || st.Backlog != 0 {
			t.Fatalf("busy=%d backlog=%d after the queue drained", st.Busy, st.Backlog)
		}
	})
}

// TestBatchPoolCancelBeforeCommit releases a reserved entry without
// committing: the reservation rolls back inside Release, so the ring is
// idle the moment Release returns and no cancelled entry is ever
// published. A queued lease released before commit leaves the queue.
func TestBatchPoolCancelBeforeCommit(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newBatchPool(t, root, 1, batchEcho, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		queued, err := p.Acquire("carol")
		if err != nil {
			t.Fatal(err)
		}
		if queued.Arg != 0 {
			t.Fatal("second lease bound a reserved ring")
		}
		queued.Release()
		l.Release() // cancel
		if st := p.Stats(); st.Busy != 0 || st.Gates[0].Inflight != 0 {
			t.Fatalf("after the release: busy=%d inflight=%d, want 0/0", st.Busy, st.Gates[0].Inflight)
		}
		p.Drain() // already quiescent
		p.Undrain()
		if ret := batchSession(t, p, root, "bob", 9); ret != 9 {
			t.Fatalf("ret = %d", ret)
		}
	})
}

// TestBatchPoolDeadWorkerRespawn faults the batch worker and checks the
// next acquisition replaces it.
func TestBatchPoolDeadWorkerRespawn(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		body := func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				if g.Load64(b.Arg()) == 666 {
					g.Load64(vm.Addr(8)) // fault
				}
				b.Complete(1)
			}
		}
		p := newBatchPool(t, root, 1, body, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l.Arg, 666)
		if _, err := l.CallBatch(root, 0, -1, 0); !errors.Is(err, sthread.ErrGateExited) {
			t.Fatalf("want ErrGateExited, got %v", err)
		}
		l.Release()
		// Next session must respawn the worker and complete.
		l2, err := p.Acquire("bob")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l2.Arg, 1)
		if ret, err := l2.CallBatch(root, 0, -1, 0); err != nil || ret != 1 {
			t.Fatalf("post-respawn CallBatch = %v, %v", ret, err)
		}
		l2.Release()
		if st := p.Stats(); st.Replaced == 0 {
			t.Fatalf("no replacement counted: %+v", st)
		}
	})
}

// TestBatchPoolConfigRejects checks the config validation: exactly one
// worker def.
func TestBatchPoolConfigRejects(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		if _, err := New(root, Config{
			Gates: []GateDef{{Name: "g", Entry: echoGate}}}); err == nil {
			t.Fatal("pool without a Batch def accepted")
		}
		if _, err := New(root, Config{
			Gates: []GateDef{{Name: "a", Batch: batchEcho}, {Name: "b", Batch: batchEcho}}}); err == nil {
			t.Fatal("pool with two Batch defs accepted")
		}
		p, err := New(root, Config{
			Gates: []GateDef{{Name: "g", Batch: batchEcho}}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		l, err := p.Acquire("x")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.CallBatch(root, 0, -1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := l.CallBatch(root, 0, -1, 0); err == nil {
			t.Fatal("second CallBatch on one lease accepted")
		}
		l.Release()
	})
}
