package gatepool

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// withRoot boots a fresh system and runs fn as the root sthread.
func withRoot(t *testing.T, fn func(root *sthread.Sthread)) {
	t.Helper()
	app := sthread.Boot(kernel.New())
	if err := app.Main(fn); err != nil {
		t.Fatalf("main: %v", err)
	}
}

// echoGate increments the word at arg+0 into arg+8.
func echoGate(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	g.Store64(arg+8, g.Load64(arg)+1)
	return 1
}

// probeGate attempts to read the address named at arg+0, reporting whether
// the read was permitted. Used to show slots do not share argument memory.
func probeGate(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	target := vm.Addr(g.Load64(arg))
	var b [8]byte
	if err := g.TryRead(target, b[:]); err != nil {
		return 0
	}
	return 1
}

// faultyGate faults (touches unmapped memory) when arg+0 holds 1,
// terminating the gate sthread; otherwise behaves like echoGate.
func faultyGate(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	if g.Load64(arg) == 1 {
		g.Load64(vm.Addr(8)) // unmapped: protection fault kills the gate
	}
	return echoGate(g, arg, 0)
}

// newTestPool builds a pool whose rings run batchEcho and whose one
// nested gate, "gate", runs nested.
func newTestPool(t *testing.T, root *sthread.Sthread, slots int, nested sthread.GateFunc, noScrub bool) *Pool {
	t.Helper()
	p, err := New(root, Config{
		Name:    "test",
		Slots:   slots,
		NoScrub: noScrub,
		Gates: []GateDef{
			{Name: "worker", SC: policy.New(), Batch: batchEcho},
			{Name: "gate", SC: policy.New(), Entry: nested},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// TestPoolCallRoundTrip: a bound lease's nested gate reaches the lease's
// own entry block.
func TestPoolCallRoundTrip(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 2, echoGate, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l.Arg, 41)
		ret, err := l.Call("gate", root, l.Arg)
		if err != nil || ret != 1 {
			t.Fatalf("Call = %v, %v", ret, err)
		}
		if got := root.Load64(l.Arg + 8); got != 42 {
			t.Fatalf("gate echoed %d, want 42", got)
		}
		if _, err := l.Call("nope", root, l.Arg); err == nil {
			t.Fatal("Call of an unknown gate succeeded")
		}
		l.Release()
		st := p.Stats()
		if st.Acquires != 1 || st.Slots != 2 || st.Busy != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestPoolAffinity: a returning principal lands on the same slot, with no
// scrub and no steal. Its returns alternate between the ring's two
// positions, so one of three lands on the position it has not used yet
// and two reuse a position warm with its own bytes: two affinity hits.
func TestPoolAffinity(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 4, echoGate, false)
		defer p.Close()
		first, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		slot := first.Slot
		if first.Scrubbed || first.Stolen {
			t.Errorf("first lease on a clean home slot scrubbed=%v stolen=%v", first.Scrubbed, first.Stolen)
		}
		first.Release()
		for i := 0; i < 3; i++ {
			l, err := p.Acquire("alice")
			if err != nil {
				t.Fatal(err)
			}
			if l.Slot != slot {
				t.Fatalf("lease %d landed on slot %d, want home slot %d", i, l.Slot, slot)
			}
			if l.Scrubbed || l.Stolen {
				t.Fatalf("affinity lease scrubbed=%v stolen=%v", l.Scrubbed, l.Stolen)
			}
			root.Store64(l.Arg, uint64(i))
			if _, err := l.CallBatch(root, 0, -1, 0); err != nil {
				t.Fatal(err)
			}
			l.Release()
		}
		st := p.Stats()
		if st.AffinityHits != 2 || st.Steals != 0 || st.Scrubs != 0 {
			t.Fatalf("affinity=%d steals=%d scrubs=%d, want 2/0/0", st.AffinityHits, st.Steals, st.Scrubs)
		}
	})
}

// TestPoolSlotsShareNoArgumentMemory: each slot's ring lives in its own
// tag, so a gate bound to one principal cannot read another slot's
// argument block even while both are live.
func TestPoolSlotsShareNoArgumentMemory(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 2, probeGate, false)
		defer p.Close()
		a, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		// alice's reservation keeps her ring busy, so bob binds the other.
		b, err := p.Acquire("bob")
		if err != nil {
			t.Fatal(err)
		}
		if b.Slot == a.Slot {
			t.Fatal("two live reservations on one ring")
		}
		if a.ArgTag == b.ArgTag {
			t.Fatalf("slots share argument tag %d", a.ArgTag)
		}
		// Slot A's gate may read its own block...
		root.Store64(a.Arg, uint64(a.Arg))
		if ret, err := a.Call("gate", root, a.Arg); err != nil || ret != 1 {
			t.Fatalf("self probe = %v, %v (want readable)", ret, err)
		}
		// ...but not slot B's.
		root.Store64(a.Arg, uint64(b.Arg))
		if ret, err := a.Call("gate", root, a.Arg); err != nil || ret != 0 {
			t.Fatalf("cross-slot probe = %v, %v (want denied)", ret, err)
		}
		a.Release()
		b.Release()
	})
}

// TestPoolScrubBetweenPrincipals: the §3.3 residue channel. One principal
// runs twice, leaving its secret in both ring positions; with scrubbing,
// the next principal bound to either position sees only zeroes, and with
// NoScrub the stale argument bytes are still there.
func TestPoolScrubBetweenPrincipals(t *testing.T) {
	const secret = 0x5EC12E7
	for _, noScrub := range []bool{false, true} {
		name := "scrub"
		if noScrub {
			name = "noscrub"
		}
		t.Run(name, func(t *testing.T) {
			withRoot(t, func(root *sthread.Sthread) {
				p := newTestPool(t, root, 1, echoGate, noScrub)
				defer p.Close()
				used := map[vm.Addr]bool{}
				for i := 0; i < 2; i++ {
					a, err := p.Acquire("alice")
					if err != nil {
						t.Fatal(err)
					}
					root.Store64(a.Arg+16, secret) // sensitive argument residue
					if _, err := a.CallBatch(root, 0, -1, 0); err != nil {
						t.Fatal(err)
					}
					a.Release()
					used[a.Arg] = true
				}
				if len(used) != 2 {
					t.Fatalf("alice's two sessions used %d ring positions, want 2", len(used))
				}

				b, err := p.Acquire("mallory")
				if err != nil {
					t.Fatal(err)
				}
				if !used[b.Arg] {
					t.Fatalf("mallory bound %#x, not one of alice's positions", uint64(b.Arg))
				}
				got := root.Load64(b.Arg + 16)
				if noScrub {
					if b.Scrubbed || got != secret {
						t.Fatalf("NoScrub lease scrubbed=%v residue=%#x, want raw §3.3 exposure", b.Scrubbed, got)
					}
				} else {
					if !b.Scrubbed || got != 0 {
						t.Fatalf("lease scrubbed=%v residue=%#x, want scrubbed zeroes", b.Scrubbed, got)
					}
				}
				b.Release()
			})
		})
	}
}

// TestPoolStealAndQueue: with the home slot's ring reserved, a second
// lease for the same principal steals the other free ring; with every
// ring reserved, a third Acquire returns at once with the lease queued
// unbound, and once committed it binds the first ring to free.
func TestPoolStealAndQueue(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 2, echoGate, false)
		defer p.Close()
		first, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		second, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		if !second.Stolen || second.Slot == first.Slot {
			t.Fatalf("second lease stolen=%v slot=%d (first %d)", second.Stolen, second.Slot, first.Slot)
		}

		third, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		if third.Arg != 0 {
			t.Fatalf("third lease bound slot %d while every ring was reserved", third.Slot)
		}
		if st := p.Stats(); st.Waits != 1 || st.Acquires != 3 {
			t.Fatalf("waits=%d acquires=%d, want 1/3", st.Waits, st.Acquires)
		}
		done := make(chan error, 1)
		go func() {
			_, err := third.CallBatch(root, 0, -1, 0)
			done <- err
		}()
		first.Release()
		if err := <-done; err != nil {
			t.Fatalf("queued lease's CallBatch: %v", err)
		}
		if third.Slot != first.Slot {
			t.Fatalf("third lease bound slot %d, want the freed slot %d", third.Slot, first.Slot)
		}
		third.Release()
		second.Release()
	})
}

// TestPoolResize: growth adds live slots; shrinking retires them, closing
// busy slots only once their leases release.
func TestPoolResize(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 1, echoGate, false)
		defer p.Close()
		if err := p.Resize(3); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Slots != 3 || st.Grown != 2 {
			t.Fatalf("after grow: %+v", st)
		}

		// Hold every slot, then shrink under the leases.
		var leases []*Lease
		for i := 0; i < 3; i++ {
			l, err := p.Acquire(fmt.Sprintf("p%d", i))
			if err != nil {
				t.Fatal(err)
			}
			leases = append(leases, l)
		}
		if err := p.Resize(1); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Slots != 1 || st.Shrunk != 2 || len(st.Gates) != 3 {
			t.Fatalf("after shrink: slots=%d shrunk=%d gates=%d", st.Slots, st.Shrunk, len(st.Gates))
		}
		for _, l := range leases {
			l.Release()
		}
		if st := p.Stats(); len(st.Gates) != 1 {
			t.Fatalf("retired slots not closed: %d remain", len(st.Gates))
		}
		// The survivor still serves.
		l, err := p.Acquire("after")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l.Arg, 1)
		if ret, err := l.CallBatch(root, 0, -1, 0); err != nil || ret != 1 {
			t.Fatalf("post-shrink CallBatch = %v, %v", ret, err)
		}
		l.Release()
	})
}

// TestPoolDrainQuiesce: Drain blocks until leases release and rejects new
// acquisitions until Undrain.
func TestPoolDrainQuiesce(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 2, echoGate, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			p.Drain()
			close(drained)
		}()
		for !p.Stats().Draining {
			runtime.Gosched()
		}
		if _, err := p.Acquire("bob"); err != ErrDraining {
			t.Fatalf("Acquire during drain = %v, want ErrDraining", err)
		}
		select {
		case <-drained:
			t.Fatal("drain completed with a lease outstanding")
		default:
		}
		// A lease acquired before the drain still runs to completion.
		root.Store64(l.Arg, 5)
		if ret, err := l.CallBatch(root, 0, -1, 0); err != nil || ret != 5 {
			t.Fatalf("CallBatch during drain = %v, %v", ret, err)
		}
		l.Release()
		<-drained
		if st := p.Stats(); st.Busy != 0 {
			t.Fatalf("busy = %d after Drain returned", st.Busy)
		}
		p.Undrain()
		l2, err := p.Acquire("bob")
		if err != nil {
			t.Fatal(err)
		}
		l2.Release()
	})
}

// TestPoolReplacesDeadGate: the liveness probe. A nested gate whose entry
// faults dies; the next lease of its slot replaces it transparently.
func TestPoolReplacesDeadGate(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 1, faultyGate, false)
		defer p.Close()
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l.Arg, 1) // poison: the gate faults and dies
		if _, err := l.Call("gate", root, l.Arg); err != sthread.ErrGateExited {
			t.Fatalf("call on dying gate = %v, want ErrGateExited", err)
		}
		l.Release()

		l2, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(l2.Arg, 40)
		ret, err := l2.Call("gate", root, l2.Arg)
		if err != nil || ret != 1 {
			t.Fatalf("call on replaced gate = %v, %v", ret, err)
		}
		if got := root.Load64(l2.Arg + 8); got != 41 {
			t.Fatalf("replaced gate echoed %d", got)
		}
		l2.Release()
		if st := p.Stats(); st.Replaced != 1 {
			t.Fatalf("replaced = %d, want 1", st.Replaced)
		}
	})
}

// TestPoolStress: many principals hammering a small pool from many
// goroutines, with a resizer running underneath — the -race exercise for
// the scheduler's locking, with leases both bound at Acquire and queued.
func TestPoolStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 25
		principals = 5
	)
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 3, echoGate, false)

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l, err := p.Acquire(fmt.Sprintf("principal-%d", (g+i)%principals))
					if err != nil {
						t.Errorf("acquire: %v", err)
						return
					}
					bound := l.Arg != 0
					if bound {
						root.Store64(l.Arg, uint64(i))
					}
					ret, err := l.CallBatch(root, 0, -1, 0)
					if err != nil {
						t.Errorf("CallBatch: %v", err)
					} else if v := root.Load64(l.Arg); uint64(ret) != v || root.Load64(l.Arg+8) != v+1 {
						t.Errorf("goroutine %d iter %d: ret %d, entry %d -> %d", g, i, ret, v, root.Load64(l.Arg+8))
					} else if bound && v != uint64(i) {
						t.Errorf("goroutine %d iter %d: worker saw %d", g, i, v)
					}
					l.Release()
				}
			}(g)
		}
		resizeDone := make(chan struct{})
		go func() {
			defer close(resizeDone)
			for _, n := range []int{4, 2, 5, 3} {
				if err := p.Resize(n); err != nil {
					t.Errorf("resize %d: %v", n, err)
				}
				p.Stats()
			}
		}()
		wg.Wait()
		<-resizeDone

		st := p.Stats()
		if st.Acquires != goroutines*iters {
			t.Fatalf("acquires = %d, want %d", st.Acquires, goroutines*iters)
		}
		if st.Busy != 0 || st.Backlog != 0 {
			t.Fatalf("busy=%d backlog=%d after every lease released", st.Busy, st.Backlog)
		}
		var invocations uint64
		for _, g := range st.Gates {
			invocations += g.Invocations
		}
		// Invocations on slots retired mid-run are gone from the
		// snapshot; the surviving slots must still account for most.
		if invocations == 0 {
			t.Fatal("no invocations recorded")
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Acquire("late"); err != ErrClosed {
			t.Fatalf("acquire after close = %v, want ErrClosed", err)
		}
	})
}

// TestResizeDuringDrainRejected: a Resize racing a Drain must not admit
// fresh live slots past the drain barrier — Drain's contract is that the
// pool is quiescent when it returns. Both the blocked-drain window (a
// lease still out) and the drained-but-not-undrained window must reject
// with ErrDraining, and the slot count must be unchanged afterwards.
func TestResizeDuringDrainRejected(t *testing.T) {
	withRoot(t, func(root *sthread.Sthread) {
		p := newTestPool(t, root, 2, echoGate, false)
		defer p.Close()

		// Hold a lease so Drain blocks at its barrier.
		l, err := p.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		drainDone := make(chan struct{})
		go func() {
			p.Drain()
			close(drainDone)
		}()
		// Wait until the drain barrier is up.
		for !p.Stats().Draining {
			runtime.Gosched()
		}
		if _, err := p.Acquire("bob"); err != ErrDraining {
			t.Fatalf("Acquire during drain = %v, want ErrDraining", err)
		}
		if err := p.Resize(4); err != ErrDraining {
			t.Fatalf("Resize during blocked Drain = %v, want ErrDraining", err)
		}
		l.Release()
		<-drainDone

		// Quiescent but still draining: Resize must still be rejected.
		if err := p.Resize(4); err != ErrDraining {
			t.Fatalf("Resize after Drain (before Undrain) = %v, want ErrDraining", err)
		}
		if got := p.Stats().Slots; got != 2 {
			t.Fatalf("slots = %d after rejected resizes, want 2", got)
		}

		p.Undrain()
		if err := p.Resize(4); err != nil {
			t.Fatalf("Resize after Undrain: %v", err)
		}
		if got := p.Stats().Slots; got != 4 {
			t.Fatalf("slots = %d after Undrain resize, want 4", got)
		}
	})
}
