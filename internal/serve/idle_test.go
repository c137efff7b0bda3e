package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// The idle tests serve a looping echo: the worker greets, then echoes
// bytes until 'Q' (clean exit) or a read failure (the reaper's close).
// The loop is what lets one connection stay active across several idle
// windows while another sits silent in the same runtime.
var (
	loopSchemaB = gateabi.NewSchema("loopecho")
	_           = gateabi.ConnID(loopSchemaB)
	_           = gateabi.FD(loopSchemaB)
	loopSchema  = loopSchemaB.Seal()
)

// TestIdleTimeoutReapsIdleConn: with IdleTimeout set, an idle connection
// is reaped (its ServeConn returns, Expired counts it) while a
// concurrently active connection on the same runtime is untouched and
// completes normally afterwards.
func TestIdleTimeoutReapsIdleConn(t *testing.T) {
	const idle = 100 * time.Millisecond
	k := kernel.New()
	a := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *Runtime[struct{}], 1)
	quit := make(chan struct{})
	go func() {
		done <- a.Main(func(root *sthread.Sthread) {
			var rt *Runtime[struct{}]
			var err error
			rt, err = New(root, App[struct{}]{
				Name:        "loopecho",
				Slots:       4,
				Schema:      loopSchema,
				Worker:      "worker",
				IdleTimeout: idle,
				Finish: func(c *Conn[struct{}], ret vm.Addr, err error) error {
					if err == nil && ret == 0 {
						err = errors.New("session aborted")
					}
					return err
				},
				Gates: []gatepool.GateDef{{
					Name: "worker",
					Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
						c := rt.Lookup(w, arg)
						if c == nil {
							return 0
						}
						if _, err := w.Task.WriteFD(c.FD, []byte{'>'}); err != nil {
							return 0
						}
						buf := make([]byte, 1)
						for {
							if _, err := w.Task.ReadFD(c.FD, buf); err != nil {
								return 0 // reaped (or peer gone) mid-session
							}
							if buf[0] == 'Q' {
								return 1
							}
							if _, err := w.Task.WriteFD(c.FD, buf); err != nil {
								return 0
							}
						}
					},
				}},
			})
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			ready <- rt
			<-quit
		})
	}()
	rt := <-ready
	if rt == nil {
		t.FailNow()
	}
	defer func() {
		close(quit)
		if err := <-done; err != nil {
			t.Fatalf("main: %v", err)
		}
	}()
	defer rt.Close()

	type session struct {
		conn *netsim.Conn
		err  chan error
	}
	dial := func() session {
		c1, c2 := pairThrough(t, k)
		s := session{conn: c1, err: make(chan error, 1)}
		go func() { s.err <- rt.ServeConn(c2) }()
		buf := make([]byte, 1)
		if _, err := s.conn.Read(buf); err != nil || buf[0] != '>' {
			t.Errorf("greeting: %q, %v", buf, err)
		}
		return s
	}

	idleSess := dial()   // never speaks again
	activeSess := dial() // echoes through several idle windows

	// Keep the active session talking well past the point the idle one
	// is reaped: 8 round-trips spaced at idle/3 span ~2.6 idle windows.
	for i := 0; i < 8; i++ {
		time.Sleep(idle / 3)
		if _, err := activeSess.conn.Write([]byte{'a'}); err != nil {
			t.Fatalf("active write %d: %v", i, err)
		}
		buf := make([]byte, 1)
		if _, err := activeSess.conn.Read(buf); err != nil {
			t.Fatalf("active conn disturbed at round %d: %v", i, err)
		}
	}

	// The idle session must have been reaped by now (silent for ~2.6x
	// the timeout): its server side returned an error and the client
	// side of the connection is closed.
	select {
	case err := <-idleSess.err:
		if err == nil {
			t.Fatal("idle ServeConn returned nil, want reap-induced error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle connection never reaped")
	}
	if _, err := idleSess.conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle conn client side still readable after reap")
	}

	// The active session finishes cleanly after all that reaping.
	if _, err := activeSess.conn.Write([]byte{'Q'}); err != nil {
		t.Fatal(err)
	}
	if err := <-activeSess.err; err != nil {
		t.Fatalf("active ServeConn: %v", err)
	}

	s := rt.Snapshot()
	if s.Expired < 1 {
		t.Fatalf("Expired = %d, want >= 1", s.Expired)
	}
	if s.Served < 1 {
		t.Fatalf("Served = %d, want >= 1 (the active session)", s.Served)
	}
}

// TestIdleTimeoutRearmsActiveConn: a connection that is active when its
// idle check fires re-arms (IdleResched counts it) instead of closing.
func TestIdleTimeoutRearmsActiveConn(t *testing.T) {
	const idle = 80 * time.Millisecond
	k := kernel.New()
	a := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *Runtime[struct{}], 1)
	quit := make(chan struct{})
	go func() {
		done <- a.Main(func(root *sthread.Sthread) {
			var rt *Runtime[struct{}]
			var err error
			rt, err = New(root, App[struct{}]{
				Name:        "loopecho",
				Slots:       2,
				Schema:      loopSchema,
				Worker:      "worker",
				IdleTimeout: idle,
				Finish: func(c *Conn[struct{}], ret vm.Addr, err error) error {
					if err == nil && ret == 0 {
						err = errors.New("session aborted")
					}
					return err
				},
				Gates: []gatepool.GateDef{{
					Name: "worker",
					Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
						c := rt.Lookup(w, arg)
						if c == nil {
							return 0
						}
						w.Task.WriteFD(c.FD, []byte{'>'})
						buf := make([]byte, 1)
						for {
							if _, err := w.Task.ReadFD(c.FD, buf); err != nil {
								return 0
							}
							if buf[0] == 'Q' {
								return 1
							}
							w.Task.WriteFD(c.FD, buf)
						}
					},
				}},
			})
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			ready <- rt
			<-quit
		})
	}()
	rt := <-ready
	if rt == nil {
		t.FailNow()
	}
	defer func() {
		close(quit)
		if err := <-done; err != nil {
			t.Fatalf("main: %v", err)
		}
	}()
	defer rt.Close()

	c1, c2 := pairThrough(t, k)
	errc := make(chan error, 1)
	go func() { errc <- rt.ServeConn(c2) }()
	buf := make([]byte, 1)
	if _, err := c1.Read(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(idle / 2)
		if _, err := c1.Write([]byte{'a'}); err != nil {
			t.Fatalf("round %d: conn reaped while active: %v", i, err)
		}
		if _, err := c1.Read(buf); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	c1.Write([]byte{'Q'})
	if err := <-errc; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	s := rt.Snapshot()
	if s.IdleResched < 1 {
		t.Fatalf("IdleResched = %d, want >= 1", s.IdleResched)
	}
	if s.Expired != 0 {
		t.Fatalf("Expired = %d, want 0", s.Expired)
	}
}

// TestIdleReapUsesInjectedMonotonicClock is the wall-clock regression
// test: the reap decision must come from the runtime's injected clock
// source, not time.Now. A frozen clock keeps a silent connection alive
// through several real-time idle windows (the wall-clock bug reaped it;
// a backward NTP step deferred reaping forever); advancing the injected
// clock past the timeout then reaps it promptly.
func TestIdleReapUsesInjectedMonotonicClock(t *testing.T) {
	const idle = 40 * time.Millisecond
	k := kernel.New()
	a := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *Runtime[struct{}], 1)
	quit := make(chan struct{})
	go func() {
		done <- a.Main(func(root *sthread.Sthread) {
			var rt *Runtime[struct{}]
			var err error
			rt, err = New(root, App[struct{}]{
				Name:        "loopecho",
				Slots:       2,
				Schema:      loopSchema,
				Worker:      "worker",
				IdleTimeout: idle,
				Gates: []gatepool.GateDef{{
					Name: "worker",
					Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
						c := rt.Lookup(w, arg)
						if c == nil {
							return 0
						}
						w.Task.WriteFD(c.FD, []byte{'>'})
						buf := make([]byte, 1)
						for {
							if _, err := w.Task.ReadFD(c.FD, buf); err != nil {
								return 1 // reaped: normal unwind
							}
							if buf[0] == 'Q' {
								return 1
							}
							w.Task.WriteFD(c.FD, buf)
						}
					},
				}},
			})
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			ready <- rt
			<-quit
		})
	}()
	rt := <-ready
	if rt == nil {
		t.FailNow()
	}
	defer func() {
		close(quit)
		if err := <-done; err != nil {
			t.Fatalf("main: %v", err)
		}
	}()
	defer rt.Close()

	// The fake clock starts at 1 (the table treats 0 as "unstamped") and
	// advances only when the test says so.
	var fake atomic.Int64
	fake.Store(1)
	rt.setClock(fake.Load)

	c1, c2 := pairThrough(t, k)
	errc := make(chan error, 1)
	go func() { errc <- rt.ServeConn(c2) }()
	buf := make([]byte, 1)
	if _, err := c1.Read(buf); err != nil || buf[0] != '>' {
		t.Fatalf("greeting: %q, %v", buf, err)
	}

	// Frozen clock: the connection sits silent for ~4 real idle windows,
	// but on the injected clock zero time has passed — every reaper fire
	// must re-arm, never reap.
	time.Sleep(4 * idle)
	select {
	case err := <-errc:
		t.Fatalf("connection reaped under a frozen clock: %v", err)
	default:
	}
	s := rt.Snapshot()
	if s.Expired != 0 {
		t.Fatalf("Expired = %d under frozen clock, want 0", s.Expired)
	}
	if s.IdleResched < 1 {
		t.Fatalf("IdleResched = %d, want >= 1 (reaper fired and re-armed)", s.IdleResched)
	}

	// Advance the injected clock past the timeout: the next fire reaps.
	// The client never sent 'Q', so ServeConn returning at all means the
	// reaper closed the connection (the gate treats the failed read as a
	// normal unwind, so the error is nil).
	fake.Add(int64(2 * idle))
	select {
	case <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("connection never reaped after clock advance")
	}
	if s := rt.Snapshot(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}
	if s := rt.Snapshot(); s.Conns.Entries != 0 {
		t.Fatalf("conn-table entries = %d after reap, want 0", s.Conns.Entries)
	}
}

// TestNoIdleTimeoutSkipsClock: an app without IdleTimeout must never
// read the time source — the conn table stays untracked, so Put is a
// stamp-free registration (the lazy-touch fix). The injected clock
// counts its invocations; a full session must leave it at zero.
func TestNoIdleTimeoutSkipsClock(t *testing.T) {
	k := kernel.New()
	a := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *Runtime[struct{}], 1)
	quit := make(chan struct{})
	go func() {
		done <- a.Main(func(root *sthread.Sthread) {
			var rt *Runtime[struct{}]
			var err error
			rt, err = New(root, App[struct{}]{
				Name:   "loopecho",
				Slots:  2,
				Schema: loopSchema,
				Worker: "worker",
				Gates: []gatepool.GateDef{{
					Name: "worker",
					Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
						c := rt.Lookup(w, arg)
						if c == nil {
							return 0
						}
						w.Task.WriteFD(c.FD, []byte{'>'})
						buf := make([]byte, 1)
						for {
							if _, err := w.Task.ReadFD(c.FD, buf); err != nil {
								return 0
							}
							if buf[0] == 'Q' {
								return 1
							}
							w.Task.WriteFD(c.FD, buf)
						}
					},
				}},
			})
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			ready <- rt
			<-quit
		})
	}()
	rt := <-ready
	if rt == nil {
		t.FailNow()
	}
	defer func() {
		close(quit)
		if err := <-done; err != nil {
			t.Fatalf("main: %v", err)
		}
	}()
	defer rt.Close()

	var reads atomic.Int64
	rt.setClock(func() int64 { return reads.Add(1) })

	c1, c2 := pairThrough(t, k)
	errc := make(chan error, 1)
	go func() { errc <- rt.ServeConn(c2) }()
	buf := make([]byte, 1)
	if _, err := c1.Read(buf); err != nil || buf[0] != '>' {
		t.Fatalf("greeting: %q, %v", buf, err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c1.Write([]byte{'a'}); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	c1.Write([]byte{'Q'})
	if err := <-errc; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("no-IdleTimeout app read the clock %d times, want 0", n)
	}
	if s := rt.Snapshot(); s.Conns.Entries != 0 {
		t.Fatalf("conn-table entries = %d after session, want 0", s.Conns.Entries)
	}
}

var pairSeq atomic.Int64

// pairThrough builds a connected client/server pair over the simulated
// network (fresh listener address per call; the dialing side gets
// netsim's fresh client-N address, so each server side is a distinct
// principal).
func pairThrough(t *testing.T, k *kernel.Kernel) (client, server *netsim.Conn) {
	t.Helper()
	addr := fmt.Sprintf("idle:%s-%d", t.Name(), pairSeq.Add(1))
	l, err := k.Net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   *netsim.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = k.Net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return client, r.c
}
