package sthread

import (
	"errors"
	"sync"
	"testing"

	"wedge/internal/policy"
	"wedge/internal/vm"
)

// batchRig is the common test setup: an arena tag holding one ring, and
// a batch gate whose body doubles each entry's first word into its
// second.
func batchRig(t *testing.T, root *Sthread, depth, entrySize int, hooks BatchHooks) (*Recycled, *BatchRing) {
	t.Helper()
	app := root.App()
	tag, err := app.Tags.TagNew(root.Task)
	if err != nil {
		t.Fatal(err)
	}
	base, err := root.Smalloc(tag, BatchRingBytes(depth, entrySize))
	if err != nil {
		t.Fatal(err)
	}
	sc := policy.New().MustMemAdd(tag, vm.PermRW)
	body := func(g *Sthread, b *Batch, _ vm.Addr) {
		for b.More() {
			v := g.Load64(b.Arg())
			g.Store64(b.Arg()+8, 2*v)
			b.Complete(vm.Addr(v))
		}
	}
	gate, ring, err := root.NewRecycledBatch("batch", sc, body, BatchConfig{
		Base: base, Depth: depth, EntrySize: entrySize, Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gate, ring
}

// TestBatchRoundTrip drives more entries than the ring is deep through
// publish/await and checks every return word and in-ring result.
func TestBatchRoundTrip(t *testing.T) {
	boot(t, func(root *Sthread) {
		gate, ring := batchRig(t, root, 4, 64, BatchHooks{})
		defer gate.Close()
		for seq := uint64(0); seq < 13; seq++ {
			root.Store64(ring.EntryAddr(seq), 100+seq)
			if err := ring.PublishTo(seq + 1); err != nil {
				t.Fatal(err)
			}
			ret, err := ring.Await(seq)
			if err != nil {
				t.Fatalf("await %d: %v", seq, err)
			}
			if uint64(ret) != 100+seq {
				t.Fatalf("ret[%d] = %d", seq, ret)
			}
			if got := root.Load64(ring.EntryAddr(seq) + 8); got != 2*(100+seq) {
				t.Fatalf("result[%d] = %d", seq, got)
			}
		}
		if ring.Entries() != 13 {
			t.Fatalf("entries = %d", ring.Entries())
		}
	})
}

// TestBatchAmortizedSweep publishes a burst while the worker is held off
// the ring by the first entry, then checks the burst drained in fewer
// sweeps than entries — the run-to-completion property.
func TestBatchAmortizedSweep(t *testing.T) {
	boot(t, func(root *Sthread) {
		hold := make(chan struct{})
		var once sync.Once
		gate, ring := batchRig(t, root, 8, 64, BatchHooks{
			Dispatch: func(seq uint64) error {
				once.Do(func() { <-hold })
				return nil
			},
		})
		defer gate.Close()
		for seq := uint64(0); seq < 8; seq++ {
			root.Store64(ring.EntryAddr(seq), seq)
		}
		if err := ring.PublishTo(8); err != nil {
			t.Fatal(err)
		}
		close(hold)
		for seq := uint64(0); seq < 8; seq++ {
			if _, err := ring.Await(seq); err != nil {
				t.Fatalf("await %d: %v", seq, err)
			}
		}
		if b := ring.Batches(); b == 0 || b >= 8 {
			t.Fatalf("batches = %d for 8 entries", b)
		}
	})
}

// TestBatchDispatchAbort rejects one entry at dispatch and checks the
// producer sees ErrBatchAborted while neighbours complete normally.
func TestBatchDispatchAbort(t *testing.T) {
	boot(t, func(root *Sthread) {
		bad := errors.New("rejected")
		gate, ring := batchRig(t, root, 4, 64, BatchHooks{
			Dispatch: func(seq uint64) error {
				if seq == 1 {
					return bad
				}
				return nil
			},
		})
		defer gate.Close()
		for seq := uint64(0); seq < 3; seq++ {
			root.Store64(ring.EntryAddr(seq), seq)
		}
		if err := ring.PublishTo(3); err != nil {
			t.Fatal(err)
		}
		if _, err := ring.Await(0); err != nil {
			t.Fatalf("await 0: %v", err)
		}
		if _, err := ring.Await(1); !errors.Is(err, ErrBatchAborted) {
			t.Fatalf("await 1: %v", err)
		}
		if _, err := ring.Await(2); err != nil {
			t.Fatalf("await 2: %v", err)
		}
	})
}

// TestBatchCompleteHookOrdersAwait holds the Complete hook and checks a
// producer cannot get past Await before the hook finishes, even though
// the worker body has already returned — the trust boundary the fd
// revocation and teardown path relies on.
func TestBatchCompleteHookOrdersAwait(t *testing.T) {
	boot(t, func(root *Sthread) {
		inHook := make(chan struct{})
		release := make(chan struct{})
		gate, ring := batchRig(t, root, 2, 64, BatchHooks{
			Complete: func(seq uint64, ret vm.Addr) {
				close(inHook)
				<-release
			},
		})
		defer gate.Close()
		root.Store64(ring.EntryAddr(0), 7)
		if err := ring.PublishTo(1); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			ring.Await(0)
			close(done)
		}()
		<-inHook
		select {
		case <-done:
			t.Fatal("Await returned before Complete hook finished")
		default:
		}
		close(release)
		<-done
	})
}

// TestBatchForgedStatusWord has the worker body stamp its own header
// "done" before blocking; the producer must not be released by the
// forged word — only the host-side completion shadow counts.
func TestBatchForgedStatusWord(t *testing.T) {
	boot(t, func(root *Sthread) {
		app := root.App()
		tag, _ := app.Tags.TagNew(root.Task)
		base, err := root.Smalloc(tag, BatchRingBytes(2, 64))
		if err != nil {
			t.Fatal(err)
		}
		sc := policy.New().MustMemAdd(tag, vm.PermRW)
		forged := make(chan struct{})
		release := make(chan struct{})
		body := func(g *Sthread, b *Batch, _ vm.Addr) {
			for b.More() {
				// Forge completion in simulated memory, then stall.
				g.Task.AtomicStore64(base+brHdrs+8, 42)
				g.Task.AtomicStore64(base+brHdrs, batchDone)
				g.Task.FutexWake(base+brHdrs, 8)
				close(forged)
				<-release
				b.Complete(1)
			}
		}
		gate, ring, err := root.NewRecycledBatch("forger", sc, body, BatchConfig{
			Base: base, Depth: 2, EntrySize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gate.Close()
		if err := ring.PublishTo(1); err != nil {
			t.Fatal(err)
		}
		done := make(chan vm.Addr, 1)
		go func() {
			ret, _ := ring.Await(0)
			done <- ret
		}()
		<-forged
		select {
		case <-done:
			t.Fatal("forged status word released the producer")
		default:
		}
		close(release)
		if ret := <-done; ret != 1 {
			t.Fatalf("ret = %d, want the real completion's 1", ret)
		}
	})
}

// TestBatchGateFault kills the worker mid-entry and checks both the
// faulted entry's producer and later producers get ErrGateExited.
func TestBatchGateFault(t *testing.T) {
	boot(t, func(root *Sthread) {
		app := root.App()
		tag, _ := app.Tags.TagNew(root.Task)
		base, err := root.Smalloc(tag, BatchRingBytes(2, 64))
		if err != nil {
			t.Fatal(err)
		}
		sc := policy.New().MustMemAdd(tag, vm.PermRW)
		body := func(g *Sthread, b *Batch, _ vm.Addr) {
			for b.More() {
				g.Load64(vm.Addr(8)) // fault: ungranted
				b.Complete(1)
			}
		}
		gate, ring, err := root.NewRecycledBatch("boom", sc, body, BatchConfig{
			Base: base, Depth: 2, EntrySize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gate.Close()
		if err := ring.PublishTo(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ring.Await(0); !errors.Is(err, ErrGateExited) {
			t.Fatalf("await on faulted gate: %v", err)
		}
		if gate.Alive() {
			t.Fatal("gate still alive after fault")
		}
	})
}

// TestBatchRefusedWorkKillsGate checks the stuck-body defence: a body
// that returns without consuming pending work dies rather than wedging
// its producers.
func TestBatchRefusedWorkKillsGate(t *testing.T) {
	boot(t, func(root *Sthread) {
		app := root.App()
		tag, _ := app.Tags.TagNew(root.Task)
		base, err := root.Smalloc(tag, BatchRingBytes(2, 64))
		if err != nil {
			t.Fatal(err)
		}
		sc := policy.New().MustMemAdd(tag, vm.PermRW)
		body := func(g *Sthread, b *Batch, _ vm.Addr) {} // never calls More
		gate, ring, err := root.NewRecycledBatch("lazy", sc, body, BatchConfig{
			Base: base, Depth: 2, EntrySize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gate.Close()
		if err := ring.PublishTo(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ring.Await(0); !errors.Is(err, ErrGateExited) {
			t.Fatalf("await on lazy gate: %v", err)
		}
	})
}

// TestBatchCallRejected checks the single-call protocol is closed off on
// a batch-mode gate.
func TestBatchCallRejected(t *testing.T) {
	boot(t, func(root *Sthread) {
		gate, _ := batchRig(t, root, 2, 64, BatchHooks{})
		defer gate.Close()
		if _, err := gate.Call(root, 0); err == nil {
			t.Fatal("Call on batch gate succeeded")
		}
	})
}

// TestBatchBadGeometry rejects unaligned and empty rings.
func TestBatchBadGeometry(t *testing.T) {
	boot(t, func(root *Sthread) {
		app := root.App()
		tag, _ := app.Tags.TagNew(root.Task)
		base, _ := root.Smalloc(tag, 4096)
		sc := policy.New().MustMemAdd(tag, vm.PermRW)
		body := func(*Sthread, *Batch, vm.Addr) {}
		for _, cfg := range []BatchConfig{
			{Base: base, Depth: 0, EntrySize: 64},
			{Base: base, Depth: 4, EntrySize: 0},
			{Base: base, Depth: 4, EntrySize: 60},
			{Base: base + 4, Depth: 4, EntrySize: 64},
		} {
			if _, _, err := root.NewRecycledBatch("bad", sc, body, cfg); err == nil {
				t.Fatalf("geometry %+v accepted", cfg)
			}
		}
	})
}

// TestBatchClose parks a worker, closes the gate, and checks the worker
// exits and late publishes fail cleanly.
func TestBatchClose(t *testing.T) {
	boot(t, func(root *Sthread) {
		gate, ring := batchRig(t, root, 2, 64, BatchHooks{})
		if err := gate.Close(); err != nil {
			t.Fatal(err)
		}
		if gate.Alive() {
			t.Fatal("alive after close")
		}
		if err := ring.PublishTo(1); err != nil {
			t.Fatal(err) // publish itself succeeds; the await aborts
		}
		if _, err := ring.Await(0); !errors.Is(err, ErrGateExited) {
			t.Fatalf("await after close: %v", err)
		}
	})
}
