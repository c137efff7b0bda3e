// Package servetest is the conformance battery every pooled wedge
// application (every serve.App descriptor) must pass. PRs 1–3 grew three
// hand-rolled copies of the same per-app tests — residue scrub, drain,
// leak accounting — one per server; this package is the single reusable
// harness they converged into, applied to httpd, sshd, pop3, and the
// pooled privsep monitor alike.
//
// An application plugs in with an App adapter: how to provision the
// kernel, how to build its server (any type embedding *serve.Runtime[T]
// satisfies Runtime), a client driver for one complete session, a driver
// that parks a connection mid-protocol (completable or abandonable), and
// the descriptor's argument-block geometry. Run then executes the shared
// battery:
//
//   - Residue: a second principal leasing the slot — before and after a
//     Resize — observes a scrubbed argument block (every byte but the
//     runtime's demux words) and an untouched arena window past it,
//     never the first principal's bytes (§3.3's cross-principal
//     channel, closed).
//   - DrainUndrain: Drain completes the in-flight connection, rejects
//     new admissions with the typed *serve.OverloadError
//     (errors.Is serve.ErrOverloaded), returns only at quiescence, and
//     leaks neither tasks nor tags; Undrain re-admits.
//   - ResizeUnderLoad: growing and shrinking the pool while connections
//     are in flight loses no session.
//   - Leaks: clean sessions, immediate hangups, and mid-protocol
//     abandonments return the kernel task table and live tag set to the
//     serving baseline; Close returns them to the pre-runtime baseline.
//   - Snapshot: the unified observability surface is consistent with
//     what the battery actually did.
//
// Every wait in the battery is either a channel handoff or a protocol
// round-trip that implies the awaited state (a server response proves the
// worker invocation is in flight); nothing sleeps for synchronization.
// (The separate Chaos smoke sleeps only to pace load, never to await
// state.)
package servetest

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// Runtime is the serve-runtime surface the battery drives. Every pooled
// server satisfies it by embedding *serve.Runtime[T].
type Runtime interface {
	ServeConn(*netsim.Conn) error
	Serve(*netsim.Listener) error
	Drain()
	Undrain()
	Resize(int) error
	SetQueue(int)
	Snapshot() serve.Snapshot
	PoolStats() gatepool.Stats
	Close() error
}

// Probe runs at the top of every worker invocation, inside the worker
// compartment, with the invocation's argument-block base. Adapters wire
// it into their application's exploit-hook mechanism.
type Probe func(s *sthread.Sthread, arg vm.Addr)

// Held is one parked session (see App.Hold): the worker invocation is in
// flight and awaits the client. Finish completes the session cleanly;
// Abandon drops the connection mid-protocol, forcing the server to
// unwind a worker parked inside its invocation. Callers use exactly one.
type Held struct {
	Finish  func() error
	Abandon func() error
}

// App adapts one pooled application to the battery.
type App struct {
	// Name is the serve.App descriptor name, checked against Snapshot.
	Name string
	// Addr is the address the server listens on (e.g. "sshd:22").
	Addr string

	// Setup provisions the simulated kernel before boot (users, docroot,
	// mailboxes). Optional.
	Setup func(k *kernel.Kernel) error
	// New builds the server on the root sthread with the given slot
	// count, wiring probe (possibly nil) into the worker compartment's
	// hook.
	New func(root *sthread.Sthread, slots int, probe Probe) (Runtime, error)

	// Session drives one complete client session against a fresh
	// connection, returning the secret bytes it caused to cross the
	// slot's argument block (nil when the secret is not client-visible).
	Session func(k *kernel.Kernel) ([]byte, error)
	// Hold starts a session and returns with the worker invocation
	// provably in flight (the client has received a server response and
	// the protocol awaits the client). The returned handle either
	// completes the session cleanly or abandons it mid-protocol.
	Hold func(k *kernel.Kernel) (*Held, error)

	// Schema is the application's argument-block schema (the same one its
	// serve.App descriptor carries): the residue battery probes the whole
	// block it sizes (skipping only the two demux words the runtime
	// writes per connection) plus the schema-derived arena window just
	// past it (Schema.ProbeWindow — the largest variable-length capacity
	// a codec accepts), so residue landing anywhere reachable by a worker
	// fails the suite — not only residue in a hand-tuned window.
	Schema *gateabi.Schema

	// StaticTags is the application's declared long-lived tag footprint:
	// tags New provisions that legitimately outlive the runtime (host-key
	// and password-database blobs). Close must return the live tag count
	// to the pre-runtime baseline plus exactly this many — any more is a
	// leak, any fewer means Close tore down application state.
	StaticTags int
}

// rig is one booted system serving the application under test.
type rig struct {
	k   *kernel.Kernel
	app *sthread.App
	rt  Runtime
	l   *netsim.Listener

	// Task-table and live-tag baselines: before the runtime was built
	// (Close must restore these) and with the runtime serving (every
	// quiescent moment must match these).
	baseTasks, baseTags int
	liveTasks, liveTags int
}

// start boots a kernel, builds the application's runtime inside app.Main
// (the root sthread then parks), runs drive on the test goroutine, and
// verifies the root sthread exited cleanly.
func (a App) start(t *testing.T, slots int, probe Probe, drive func(r *rig)) {
	t.Helper()
	k := kernel.New()
	if a.Setup != nil {
		if err := a.Setup(k); err != nil {
			t.Fatal(err)
		}
	}
	sapp := sthread.Boot(k)
	ready := make(chan *rig, 1)
	done := make(chan error, 1)
	quit := make(chan struct{})
	go func() {
		done <- sapp.Main(func(root *sthread.Sthread) {
			r := &rig{k: k, app: sapp,
				baseTasks: k.TaskCount(), baseTags: len(sapp.Tags.Tags())}
			rt, err := a.New(root, slots, probe)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			r.rt = rt
			r.liveTasks = k.TaskCount()
			r.liveTags = len(sapp.Tags.Tags())
			l, err := root.Task.Listen(a.Addr)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			r.l = l
			ready <- r
			<-quit // park the root sthread while the test drives
		})
	}()
	r := <-ready
	if r == nil {
		t.FailNow()
	}
	drive(r)
	close(quit)
	if err := <-done; err != nil {
		t.Fatalf("main: %v", err)
	}
}

// waitFor yields until cond holds or the deadline passes. It never
// sleeps: the conditions it waits on are flipped by goroutines that are
// already runnable (a Drain entering its wait, a queued Acquire), so
// yielding the processor is both sufficient and prompt.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// serveLoop runs the runtime-owned accept loop in the background; the
// returned stop closes the listener and blocks until every dispatched
// connection has completed (the runtime's own quiescence barrier).
func serveLoop(r *rig) (stop func()) {
	served := make(chan struct{})
	go func() {
		r.rt.Serve(r.l)
		close(served)
	}()
	return func() {
		r.l.Close()
		<-served
	}
}

// checkQuiescent verifies the serving-state baselines: no in-flight
// connections, no busy slots, an empty conn table (a non-zero entry
// count here is a demux-registration leak), and the task table and live
// tag set exactly as they were when the runtime finished construction.
func checkQuiescent(t *testing.T, r *rig, when string) {
	t.Helper()
	if s := r.rt.Snapshot(); s.Inflight != 0 || s.Pool.Busy != 0 {
		t.Errorf("%s: inflight=%d busy=%d, want 0/0", when, s.Inflight, s.Pool.Busy)
	}
	if s := r.rt.Snapshot(); s.Conns.Entries != 0 {
		t.Errorf("%s: conn-table entries = %d, want 0 (leaked demux registrations)", when, s.Conns.Entries)
	}
	if got := r.k.TaskCount(); got != r.liveTasks {
		t.Errorf("%s: task count %d, want the serving baseline %d", when, got, r.liveTasks)
	}
	if got := len(r.app.Tags.Tags()); got != r.liveTags {
		t.Errorf("%s: live tags %d, want the serving baseline %d", when, got, r.liveTags)
	}
}

// checkClosed verifies Close tore the runtime down to the pre-runtime
// baselines: every gate sthread reaped, every slot tag retired — only
// the application's declared static tag footprint may remain.
func (a App) checkClosed(t *testing.T, r *rig) {
	t.Helper()
	if err := r.rt.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := r.k.TaskCount(); got != r.baseTasks {
		t.Errorf("task count after close: %d, want the pre-runtime baseline %d", got, r.baseTasks)
	}
	if got, want := len(r.app.Tags.Tags()), r.baseTags+a.StaticTags; got != want {
		t.Errorf("live tags after close: %d, want %d (pre-runtime baseline %d + %d static)",
			got, want, r.baseTags, a.StaticTags)
	}
}

// Run executes the conformance battery against one application.
func Run(t *testing.T, a App) {
	t.Run("Residue", a.residue)
	t.Run("BatchRingResidue", a.batchRingResidue)
	t.Run("BatchAbandonedEntries", a.batchAbandonedEntries)
	t.Run("DrainUndrain", a.drainUndrain)
	t.Run("ResizeUnderLoad", a.resizeUnderLoad)
	t.Run("Leaks", a.leaks)
	t.Run("Snapshot", a.snapshot)
}

// Chaos is the bounded-duration chaos smoke: client goroutines drive
// sessions continuously while a driver fires random Drain / Undrain /
// Resize / SetQueue transitions at the runtime (fixed-seed sequence, so
// a failure replays). Sessions may fail — a drain or a no-waiting queue
// rejects admissions by design — but when the dust settles the runtime
// must be quiescent, the admission ledger must balance (admitted =
// served + failed, rejections separate), no task or tag may have leaked,
// and Close must tear down to the pre-runtime baseline. Not part of Run:
// it is a smoke, invoked by the echo self-test (and available to any
// app).
func Chaos(t *testing.T, a App, duration time.Duration) {
	const clients = 6
	a.start(t, 2, nil, func(r *rig) {
		stop := serveLoop(r)

		// Load: each client loops complete sessions until told to stop,
		// tolerating failures (rejections and drains are part of the
		// chaos) but counting successes so the run provably served.
		var served atomic.Uint64
		stopLoad := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stopLoad:
						return
					default:
					}
					if _, err := a.Session(r.k); err == nil {
						served.Add(1)
					} else {
						// Rejected (drain, shrunken pool, no-waiting
						// queue): back off instead of hot-spinning dials
						// — millions of instant rejections would only
						// measure goroutine churn.
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}

		// Chaos driver: deterministic op sequence, bounded by duration.
		rng := rand.New(rand.NewSource(7))
		deadline := time.Now().Add(duration)
		ops := 0
		for time.Now().Before(deadline) {
			ops++
			time.Sleep(time.Millisecond) // pace transitions: chaos, not a spin loop
			switch rng.Intn(6) {
			case 0:
				r.rt.Drain() // returns at quiescence; admissions now reject
			case 1:
				r.rt.Undrain()
			case 2, 3:
				r.rt.Resize(1 + rng.Intn(4)) // ErrDraining during a drain is fine
			case 4:
				r.rt.SetQueue(rng.Intn(3) - 1) // -1 (no waiting), 0 (unbounded), 1
			case 5:
				_ = r.rt.Snapshot() // observability under churn must not wedge
			}
		}

		// Settle: re-open, restore a known size and an unbounded queue,
		// let the load drain out.
		r.rt.Undrain()
		r.rt.SetQueue(0)
		close(stopLoad)
		wg.Wait()
		stop()
		if err := r.rt.Resize(2); err != nil {
			t.Fatalf("final resize: %v", err)
		}

		if served.Load() == 0 {
			t.Fatal("chaos run served no sessions at all")
		}
		s := r.rt.Snapshot()
		if s.State != serve.StateServing {
			t.Fatalf("final state = %v, want serving", s.State)
		}
		if s.Admitted != s.Served+s.Failed {
			t.Fatalf("admission ledger: admitted=%d != served=%d + failed=%d",
				s.Admitted, s.Served, s.Failed)
		}
		if s.Served < served.Load() {
			t.Fatalf("snapshot served=%d < client-observed successes %d", s.Served, served.Load())
		}
		if s.Pool.Slots != 2 {
			t.Fatalf("final slots = %d, want 2", s.Pool.Slots)
		}
		t.Logf("chaos: %d ops, %d sessions served, %d rejected, %d drains",
			ops, s.Served, s.Rejected, s.Drains)
		checkQuiescent(t, r, "after the chaos run")
		a.checkClosed(t, r)
	})
}

// residue: principal A's session leaves its secret in the slot's argument
// block; principals B, C, D (each a fresh network address, C and D after
// a Resize) lease the slot and must observe a fully scrubbed block — the
// §3.3 cross-principal channel, closed by the pool, verified via a probe
// injected into the worker compartment itself. The probe reads the whole
// argument block (every byte a worker can reach is a potential channel,
// not just an app-declared window) plus the schema-derived window of the
// tag arena past the block (Schema.ProbeWindow), where the scrub does not
// reach and therefore nothing may ever be written.
func (a App) residue(t *testing.T) {
	argSize := a.Schema.Size()
	var mu sync.Mutex
	var probes [][]byte
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		// Runs at the top of each worker invocation, before this
		// connection writes anything beyond the conn id and fd: whatever
		// sits in the window is residue (or the scrub's zeroes).
		buf := make([]byte, argSize+a.Schema.ProbeWindow())
		s.Read(arg, buf)
		mu.Lock()
		probes = append(probes, buf)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *rig) {
		stop := serveLoop(r)
		var secrets [][]byte
		session := func(what string) {
			secret, err := a.Session(r.k)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(secret) > 0 {
				secrets = append(secrets, secret)
			}
		}
		session("principal A") // plants the secret
		session("principal B") // reuses the only slot
		if err := r.rt.Resize(2); err != nil {
			t.Fatalf("resize: %v", err)
		}
		session("principal C") // old slot or fresh: both must be clean
		session("principal D")
		stop()
		// Back to the original size: the quiescence baselines below are
		// per-slot, so resize churn that leaked a task or tag shows up.
		if err := r.rt.Resize(1); err != nil {
			t.Fatalf("resize back: %v", err)
		}

		mu.Lock()
		defer mu.Unlock()
		if len(probes) != 4 {
			t.Fatalf("probes = %d, want 4", len(probes))
		}
		// The demux words are the only bytes legitimately non-zero at
		// invocation start: the runtime writes this connection's id and
		// descriptor number there. Which bytes those are is the schema's
		// knowledge, not the adapter's.
		for i, p := range probes[1:] {
			for _, secret := range secrets[:min(i+1, len(secrets))] {
				if len(secret) > 0 && bytes.Contains(p, secret) {
					t.Fatalf("probe %d read an earlier principal's secret from the reused slot", i+1)
				}
			}
			for j, b := range p {
				if b == 0 || a.Schema.IsDemux(j) {
					continue
				}
				if j < argSize {
					t.Fatalf("probe %d: argument block not scrubbed at +%d (%#x)", i+1, j, b)
				}
				t.Fatalf("probe %d: slot arena dirtied past the argument block at +%d (%#x) — "+
					"the scrub never reaches there, so this is a permanent cross-principal channel",
					i+1, j, b)
			}
		}
		checkQuiescent(t, r, "after the residue sessions")
		a.checkClosed(t, r)
	})
}

// drainUndrain: a Drain issued while a connection is in flight completes
// that connection, rejects new admissions with the typed overload error,
// returns only at quiescence, leaks nothing, and Undrain re-admits.
func (a App) drainUndrain(t *testing.T) {
	a.start(t, 2, nil, func(r *rig) {
		// One connection held in flight: Hold returns only once the
		// client has a server response in hand, which proves the worker
		// invocation is running and the slot is leased.
		heldErr := make(chan error, 1)
		go func() {
			c, err := r.l.Accept()
			if err != nil {
				heldErr <- err
				return
			}
			heldErr <- r.rt.ServeConn(c)
		}()
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if s := r.rt.Snapshot(); s.Inflight != 1 || s.Pool.Busy != 1 {
			t.Fatalf("held connection: inflight=%d busy=%d, want 1/1", s.Inflight, s.Pool.Busy)
		}

		// Drain in the background: it must block on the held connection.
		drained := make(chan struct{})
		go func() {
			r.rt.Drain()
			close(drained)
		}()
		waitFor(t, "draining state", func() bool { return r.rt.Snapshot().State == serve.StateDraining })
		select {
		case <-drained:
			t.Fatal("Drain returned with a connection still in flight")
		default:
		}

		// New admissions are rejected with the typed overload error.
		lateConn, err := r.k.Net.Dial(a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer lateConn.Close()
		lateServer, err := r.l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		err = r.rt.ServeConn(lateServer)
		if err == nil {
			t.Fatal("admission during drain succeeded")
		}
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("drain rejection = %v, want errors.Is serve.ErrOverloaded", err)
		}
		var oe *serve.OverloadError
		if !errors.As(err, &oe) || oe.State != serve.StateDraining || oe.App != a.Name {
			t.Fatalf("drain rejection = %#v, want *OverloadError{App: %q, State: draining}", err, a.Name)
		}

		// The held connection completes normally and Drain returns.
		if err := held.Finish(); err != nil {
			t.Fatalf("in-flight session during drain: %v", err)
		}
		if err := <-heldErr; err != nil {
			t.Fatalf("in-flight ServeConn during drain: %v", err)
		}
		<-drained
		s := r.rt.Snapshot()
		if s.State != serve.StateDraining {
			t.Fatalf("post-drain state = %v, want draining", s.State)
		}
		if s.Served != 1 || s.Rejected != 1 || s.Drains != 1 {
			t.Fatalf("served=%d rejected=%d drains=%d, want 1/1/1", s.Served, s.Rejected, s.Drains)
		}
		checkQuiescent(t, r, "after drain")

		// Undrain re-admits: a complete session succeeds.
		r.rt.Undrain()
		recovered := make(chan error, 1)
		go func() {
			c, err := r.l.Accept()
			if err != nil {
				recovered <- err
				return
			}
			recovered <- r.rt.ServeConn(c)
		}()
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("session after undrain: %v", err)
		}
		if err := <-recovered; err != nil {
			t.Fatalf("serve after undrain: %v", err)
		}
		a.checkClosed(t, r)
	})
}

// resizeUnderLoad: the pool grows and shrinks while connections are in
// flight — including shrinking past the slot a held connection occupies —
// and no session is lost.
func (a App) resizeUnderLoad(t *testing.T) {
	const sessions = 8
	a.start(t, 2, nil, func(r *rig) {
		stop := serveLoop(r)

		// Hold one slot busy across both resizes.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if err := r.rt.Resize(4); err != nil {
			t.Fatalf("grow under load: %v", err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := a.Session(r.k)
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("session during resize: %v", err)
			}
		}
		// Shrink below the held slot while its connection is in flight:
		// the slot retires only when the lease is released.
		if err := r.rt.Resize(1); err != nil {
			t.Fatalf("shrink under load: %v", err)
		}
		if err := held.Finish(); err != nil {
			t.Fatalf("held session: %v", err)
		}
		stop()

		// Drain/Undrain as the quiescence barrier (Drain returns only
		// when every lease is released), then verify the ledger.
		r.rt.Drain()
		r.rt.Undrain()
		s := r.rt.Snapshot()
		if s.Served != sessions+1 {
			t.Errorf("served = %d, want %d", s.Served, sessions+1)
		}
		if s.Pool.Slots != 1 {
			t.Errorf("slots after shrink = %d, want 1", s.Pool.Slots)
		}
		if s.Pool.Grown < 2 || s.Pool.Shrunk < 3 {
			t.Errorf("grown=%d shrunk=%d, want >=2/>=3", s.Pool.Grown, s.Pool.Shrunk)
		}
		// Back to the original size before the per-slot baselines.
		if err := r.rt.Resize(2); err != nil {
			t.Fatalf("resize back: %v", err)
		}
		checkQuiescent(t, r, "after resize under load")
		a.checkClosed(t, r)
	})
}

// leaks: clean sessions and abrupt disconnects alike return the kernel
// task table and the live tag set to the serving baseline — nothing
// accumulates per connection on the pooled path — and Close returns both
// to the pre-runtime baseline.
func (a App) leaks(t *testing.T) {
	a.start(t, 2, nil, func(r *rig) {
		stop := serveLoop(r)
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("first session: %v", err)
		}
		// Abrupt disconnect: dial and hang up immediately. The worker
		// invocation fails its first read and the connection unwinds.
		abrupt, err := r.k.Net.Dial(a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		abrupt.Close()
		// Mid-protocol abandonment: the worker is provably parked inside
		// its invocation (Hold's contract) when the client vanishes — the
		// unwind path a production server hits on every flaky client.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if err := held.Abandon(); err != nil {
			t.Fatalf("abandon: %v", err)
		}
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("session after disconnect: %v", err)
		}
		stop()
		checkQuiescent(t, r, "after the leak sessions")
		a.checkClosed(t, r)
	})
}

// batchRingResidue is the batched-dataplane extension of residue: with
// one slot, strictly sequential sessions occupy consecutive ring
// positions, so principal i's worker invocation runs one entry stride
// above the position principal i-1's entry occupied. The probe therefore
// reads two windows: its own argument block (scrubbed but for the demux
// words, as in residue) and the previous ring position in full — which
// must be all zeroes, because the dispatch-side principal-switch scrub
// zeroes every finished foreign entry before the body runs. The battery's
// principals are all distinct (every session dials from a fresh client
// address), so the run must record principal-switch scrubs and zero
// same-principal skips: a skip here would mean warm-entry state crossed
// a principal switch.
func (a App) batchRingResidue(t *testing.T) {
	argSize := a.Schema.Size()
	stride := vm.Addr((argSize + 7) &^ 7) // the ring's entry stride (gatepool entry size)
	var depth atomic.Int64
	var mu sync.Mutex
	var own, prev [][]byte
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		o := make([]byte, argSize)
		s.Read(arg, o)
		mu.Lock()
		idx := len(own)
		mu.Unlock()
		var pr []byte
		// Ring position idx%depth; position 0's lower neighbour is the
		// header array, not an entry, so only later positions probe below.
		if d := depth.Load(); d > 0 && int64(idx)%d != 0 {
			pr = make([]byte, stride)
			s.Read(arg-stride, pr)
		}
		mu.Lock()
		own = append(own, o)
		prev = append(prev, pr)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *rig) {
		st := r.rt.PoolStats()
		depth.Store(int64(st.RingDepth))
		stop := serveLoop(r)
		sessions := 4
		if st.RingDepth < sessions {
			sessions = st.RingDepth // keep every session at a distinct position
		}
		var secrets [][]byte
		for i := 0; i < sessions; i++ {
			secret, err := a.Session(r.k)
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if len(secret) > 0 {
				secrets = append(secrets, secret)
			}
		}
		stop()

		mu.Lock()
		defer mu.Unlock()
		if len(own) != sessions {
			t.Fatalf("probes = %d, want %d", len(own), sessions)
		}
		for i := 1; i < len(own); i++ {
			for _, secret := range secrets[:min(i, len(secrets))] {
				if len(secret) > 0 && bytes.Contains(own[i], secret) {
					t.Fatalf("probe %d read an earlier principal's secret from its ring entry", i)
				}
			}
			for j, b := range own[i] {
				if b != 0 && !a.Schema.IsDemux(j) {
					t.Fatalf("probe %d: ring entry not scrubbed at +%d (%#x)", i, j, b)
				}
			}
			if prev[i] == nil {
				t.Fatalf("probe %d took no lower-neighbour window", i)
			}
			for j, b := range prev[i] {
				if b != 0 {
					t.Fatalf("probe %d: the previous principal's ring position still holds %#x at +%d — "+
						"its entry was not scrubbed before this principal's body ran", i, b, j)
				}
			}
		}
		ps := r.rt.PoolStats()
		if ps.Scrubs == 0 {
			t.Errorf("no principal-switch scrubs recorded across %d distinct principals: %+v", sessions, ps)
		}
		if ps.ScrubsSkipped != 0 {
			t.Errorf("scrub skips = %d with all-distinct principals, want 0 — "+
				"skips may only occur on consecutive same-principal entries", ps.ScrubsSkipped)
		}
		checkQuiescent(t, r, "after the ring residue sessions")
		a.checkClosed(t, r)
	})
}

// batchAbandonedEntries: leak accounting for ring entries abandoned at
// every stage. With one slot, a held session parks the worker inside its
// entry's body while a second admission commits its lease, which waits in
// the pool queue for the ring (visible as pool backlog). Both clients
// then vanish — the queued one before its entry ever dispatched, the held
// one mid-invocation. The
// runtime must retire both entries, balance its admission ledger, drain
// the backlog to zero, and return task and tag accounting to the serving
// baseline; Close must reach the pre-runtime baseline.
func (a App) batchAbandonedEntries(t *testing.T) {
	a.start(t, 1, nil, func(r *rig) {
		stop := serveLoop(r)
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		queued, err := r.k.Net.Dial(a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a committed lease queued while the worker is held", func() bool {
			return r.rt.PoolStats().Backlog >= 1
		})
		// The queued client vanishes while its entry is still undispatched,
		// then the held client abandons mid-invocation.
		queued.Close()
		if err := held.Abandon(); err != nil {
			t.Fatalf("abandon: %v", err)
		}
		waitFor(t, "both abandoned entries to retire", func() bool {
			s := r.rt.Snapshot()
			return s.Inflight == 0 && s.Pool.Busy == 0
		})
		stop()

		if ps := r.rt.PoolStats(); ps.Backlog != 0 {
			t.Errorf("ring backlog = %d after the abandonments, want 0", ps.Backlog)
		}
		s := r.rt.Snapshot()
		if s.Admitted != s.Served+s.Failed {
			t.Errorf("admission ledger: admitted=%d != served=%d + failed=%d",
				s.Admitted, s.Served, s.Failed)
		}
		if s.Admitted != 2 {
			t.Errorf("admitted = %d, want 2 (the held and the queued session)", s.Admitted)
		}
		checkQuiescent(t, r, "after the abandoned entries")
		a.checkClosed(t, r)
	})
}

// snapshot: the unified observability surface agrees with what the
// battery did — admission counters, pool counters, pin hints, lifecycle
// state, through Close.
func (a App) snapshot(t *testing.T) {
	const sessions = 5
	const slots = 3
	a.start(t, slots, nil, func(r *rig) {
		stop := serveLoop(r)
		for i := 0; i < sessions; i++ {
			if _, err := a.Session(r.k); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		stop()

		s := r.rt.Snapshot()
		if s.App != a.Name {
			t.Errorf("snapshot app = %q, want %q", s.App, a.Name)
		}
		if s.State != serve.StateServing {
			t.Errorf("state = %v, want serving", s.State)
		}
		if s.Inflight != 0 || s.Waiting != 0 {
			t.Errorf("inflight=%d waiting=%d, want 0/0", s.Inflight, s.Waiting)
		}
		if s.Admitted != sessions || s.Served != sessions {
			t.Errorf("admitted=%d served=%d, want %d/%d", s.Admitted, s.Served, sessions, sessions)
		}
		if s.Failed != 0 || s.Rejected != 0 || s.Drains != 0 {
			t.Errorf("failed=%d rejected=%d drains=%d, want 0/0/0", s.Failed, s.Rejected, s.Drains)
		}
		if s.Pool.Slots != slots || s.Pool.Busy != 0 {
			t.Errorf("pool slots=%d busy=%d, want %d/0", s.Pool.Slots, s.Pool.Busy, slots)
		}
		if s.Pool.Acquires != sessions {
			t.Errorf("pool acquires = %d, want %d (one lease per session)", s.Pool.Acquires, sessions)
		}
		if len(s.Pins) != slots {
			t.Errorf("pins = %d, want %d", len(s.Pins), slots)
		}
		procs := runtime.GOMAXPROCS(0)
		for _, pin := range s.Pins {
			if pin.CPU != pin.Slot%procs {
				t.Errorf("slot %d pinned to CPU %d, want %d", pin.Slot, pin.CPU, pin.Slot%procs)
			}
		}

		a.checkClosed(t, r)
		if s := r.rt.Snapshot(); s.State != serve.StateClosed || !s.Pool.Closed {
			t.Errorf("post-close snapshot: state=%v pool.closed=%v, want closed/true", s.State, s.Pool.Closed)
		}
	})
}
