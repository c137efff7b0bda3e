package sthread

import (
	"runtime"
	"testing"
	"time"

	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/vm"
)

// TestRecycledFaultThenReplace covers two failure paths a pool scheduler
// leans on: a gate faulting mid-invocation must return ErrGateExited to
// its caller rather than stranding it on the completion futex (the
// FutexWaitAbort fix), and a replacement gate built on the dead gate's
// reused control tag must serve normally (the RefreshZero fix — tag reuse
// must not leave the control page copy-on-write against the zero frame,
// or the caller and gate diverge onto different frames).
func TestRecycledFaultThenReplace(t *testing.T) {
	app := Boot(kernel.New())
	err := app.Main(func(root *Sthread) {
		argTag, err := app.Tags.TagNew(root.Task)
		if err != nil {
			t.Fatal(err)
		}
		argBuf, err := root.Smalloc(argTag, 64)
		if err != nil {
			t.Fatal(err)
		}
		boom := func(g *Sthread, arg, _ vm.Addr) vm.Addr {
			if g.Load64(arg) == 1 {
				g.Load64(vm.Addr(8))
			}
			g.Store64(arg+8, g.Load64(arg)+1)
			return 1
		}
		sc := policy.New().MustMemAdd(argTag, vm.PermRW)
		r1, err := root.NewRecycled("one", sc, boom, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Store64(argBuf, 1)
		if _, err := r1.Call(root, argBuf); err != ErrGateExited {
			t.Fatalf("poisoned call: %v", err)
		}
		t.Logf("alive after fault: %v", r1.Alive())
		if err := r1.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := root.NewRecycled("two", sc, boom, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		t.Logf("second gate alive: %v", r2.Alive())
		root.Store64(argBuf, 20)
		if ret, err := r2.Call(root, argBuf); err != nil || ret != 1 {
			t.Fatalf("second gate: %v %v (alive=%v)", ret, err, r2.Alive())
		}
		if got := root.Load64(argBuf + 8); got != 21 {
			t.Fatalf("echo = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledCallFD: the per-invocation argument descriptor. The gate can
// use the descriptor during the invocation; after completion it is
// revoked, and a caller lacking the descriptor cannot grant it.
func TestRecycledCallFD(t *testing.T) {
	k := kernel.New()
	app := Boot(k)
	err := app.Main(func(root *Sthread) {
		l, err := root.Task.Listen("svc:1")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := k.Net.Dial("svc:1")
			if err != nil {
				t.Error(err)
				return
			}
			c.Write([]byte("ping"))
			c.Close()
		}()
		conn, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		fd := root.Task.InstallFD(conn, kernel.FDRW)

		var gateTask *kernel.Task
		gate := func(g *Sthread, arg, _ vm.Addr) vm.Addr {
			gateTask = g.Task
			buf := make([]byte, 4)
			n, err := g.Task.ReadFD(int(arg), buf)
			if err != nil || string(buf[:n]) != "ping" {
				return 0
			}
			return 1
		}
		r, err := root.NewRecycled("fdgate", policy.New(), gate, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		ret, err := r.CallFD(root, vm.Addr(fd), fd, kernel.FDRW)
		if err != nil || ret != 1 {
			t.Fatalf("CallFD = %v, %v", ret, err)
		}
		// The descriptor was revoked when the invocation completed.
		if _, err := gateTask.ReadFD(fd, make([]byte, 1)); err == nil {
			t.Fatal("argument descriptor survived the invocation")
		}
		if !r.Alive() {
			t.Fatal("gate should be alive")
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r.Alive() {
			t.Fatal("closed gate reports alive")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSthreadZero: the argument-block reset primitive enforces write
// permission like any other store.
func TestSthreadZero(t *testing.T) {
	app := Boot(kernel.New())
	err := app.Main(func(root *Sthread) {
		tag, err := app.Tags.TagNew(root.Task)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := root.Smalloc(tag, 3*vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < 3*vm.PageSize; off += 8 {
			root.Store64(buf+vm.Addr(off), ^uint64(0))
		}
		if err := root.Zero(buf, 3*vm.PageSize); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < 3*vm.PageSize; off += 8 {
			if got := root.Load64(buf + vm.Addr(off)); got != 0 {
				t.Fatalf("offset %d = %#x after Zero", off, got)
			}
		}

		// A read-only child cannot scrub.
		sc := policy.New().MustMemAdd(tag, vm.PermRead)
		child, err := root.Create(sc, func(s *Sthread, arg vm.Addr) vm.Addr {
			if err := s.Zero(arg, 8); err != nil {
				return 1 // correctly denied
			}
			return 0
		}, buf)
		if err != nil {
			t.Fatal(err)
		}
		ret, fault := root.Join(child)
		if fault != nil || ret != 1 {
			t.Fatalf("read-only Zero: ret=%v fault=%v", ret, fault)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledCloseNeverLosesWakeup: Close must stop a classic gate
// wherever its serve loop is — before its first stop check, between that
// check and the futex sleep, or asleep. The loop creates and closes gates
// under varied interleavings; a lost wakeup shows as a Close that never
// returns.
func TestRecycledCloseNeverLosesWakeup(t *testing.T) {
	cycles := 5000
	if testing.Short() {
		cycles = 500
	}
	boot(t, func(root *Sthread) {
		entry := func(g *Sthread, arg, _ vm.Addr) vm.Addr { return arg }
		for i := 0; i < cycles; i++ {
			r, err := root.NewRecycled("close-race", nil, entry, 0)
			if err != nil {
				t.Fatal(err)
			}
			switch i % 4 {
			case 1:
				runtime.Gosched()
			case 2:
				if ret, err := r.Call(root, vm.Addr(i)); err != nil || ret != vm.Addr(i) {
					t.Fatalf("cycle %d: Call = %v, %v", i, ret, err)
				}
			case 3:
				for j := 0; j < i%7; j++ {
					runtime.Gosched()
				}
			}
			closed := make(chan struct{})
			go func() {
				r.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatalf("cycle %d: Close never returned: the gate slept through the stop request", i)
			}
		}
	})
}
