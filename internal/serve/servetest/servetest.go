// Package servetest is the conformance battery every pooled wedge
// application (every serve.App descriptor) must pass, over whichever
// transport it serves. The servers grew hand-rolled copies of the same
// tests — residue scrub, drain, leak accounting — and later a second copy
// of the whole battery for datagrams; this package is the single harness
// they converged into, applied to httpd, sshd, pop3, the pooled privsep
// monitor, and dnsd alike.
//
// An application plugs in with an App adapter: its transport, how to
// provision the kernel, how to build its server (any type embedding
// *serve.Runtime[T] satisfies Runtime), a client driver for one complete
// session, a driver that parks a session mid-protocol (completable or
// abandonable), and the descriptor's argument-block geometry. Run then
// executes the shared battery; each invariant is written once, and the
// transport supplies only how to listen, how to run the serve loop, and
// how to open a bare client leg:
//
//   - Residue: a second principal leasing the slot — before and after a
//     Resize — observes a scrubbed argument block (every byte but the
//     runtime's demux words) and an untouched arena window past it,
//     never the first principal's bytes (§3.3's cross-principal
//     channel, closed).
//   - BatchRingResidue, BatchAbandonedEntries: the same scrub and leak
//     checks at the granularity of the slot's batch ring.
//   - DrainUndrain: Drain completes the in-flight session, refuses new
//     admissions — a stream caller gets the typed *serve.OverloadError
//     (errors.Is serve.ErrOverloaded), a datagram client the app's Refuse
//     reply — returns only at quiescence, and leaks neither tasks nor
//     tags; Undrain re-admits.
//   - ResizeUnderLoad: growing and shrinking the pool while sessions are
//     in flight loses no session.
//   - Leaks: clean sessions, bare client legs, and mid-protocol
//     abandonments return the kernel task table and live tag set to the
//     serving baseline; Close returns them to the pre-runtime baseline.
//   - Snapshot: the unified observability surface is consistent with
//     what the battery actually did.
//   - IdleExpiry and QueuedIsNotIdle, for applications with an idle
//     timeout: a session the wheel retires releases its slot through the
//     full scrub path, and a session waiting for a ring is never retired
//     as idle.
//
// Every wait in the battery is either a channel handoff, a protocol
// round-trip that implies the awaited state (a server response proves the
// worker invocation is in flight), or a wait for the runtime's own
// counters — which, for datagram flows, means waiting for real idle
// expiries. Nothing sleeps for synchronization. (QueuedIsNotIdle sleeps to
// let idle windows pass, and the separate Chaos smoke sleeps only to pace
// load, never to await state.)
package servetest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	ServePackets(*netsim.PacketConn) error
	Drain()
	Undrain()
	Resize(int) error
	SetQueue(int)
	Snapshot() serve.Snapshot
	PoolStats() gatepool.Stats
	Close() error
}

// Transport is how the battery reaches an application's runtime.
type Transport int

const (
	// Stream serves connections accepted from a listener (Serve). A
	// session ends when its client closes.
	Stream Transport = iota
	// Datagram serves flows the runtime demultiplexes from a packet
	// socket (ServePackets). A flow ends only by idle expiry.
	Datagram
)

func (tr Transport) String() string {
	if tr == Datagram {
		return "datagram"
	}
	return "stream"
}

// listen opens the endpoint the serve loop reads, on a task (which
// checks the listen like any syscall) or straight on a network.
func (tr Transport) listen(on interface {
	Listen(string) (*netsim.Listener, error)
	ListenPacket(string) (*netsim.PacketConn, error)
}, addr string) (io.Closer, error) {
	if tr == Datagram {
		pc, err := on.ListenPacket(addr)
		if err != nil {
			return nil, err
		}
		return pc, nil
	}
	l, err := on.Listen(addr)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// serve runs rt's serve loop — a runtime's own, or a cluster
// director's — on ep until ep closes.
func (tr Transport) serve(rt interface {
	Serve(*netsim.Listener) error
	ServePackets(*netsim.PacketConn) error
}, ep io.Closer) error {
	if tr == Datagram {
		return rt.ServePackets(ep.(*netsim.PacketConn))
	}
	return rt.Serve(ep.(*netsim.Listener))
}

// knock opens a bare client leg with no protocol behind it: a connection,
// or a socket that has sent one junk datagram. Either admits a session.
func (tr Transport) knock(k *kernel.Kernel, addr string) (io.Closer, error) {
	if tr == Datagram {
		pc, err := k.Net.DialPacket()
		if err != nil {
			return nil, err
		}
		if _, err := pc.WriteTo([]byte{0xff, 0xfe, 0xfd}, addr); err != nil {
			pc.Close()
			return nil, err
		}
		return pc, nil
	}
	c, err := k.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// expirations is how many of n completed sessions the wheel retires: a
// datagram flow lingers until its window closes, a stream session ends
// when its client closes.
func (tr Transport) expirations(n int) uint64 {
	if tr == Datagram {
		return uint64(n)
	}
	return 0
}

// Probe runs at the top of every worker invocation, inside the worker
// compartment, with the invocation's argument-block base. Adapters wire
// it into their application's exploit-hook mechanism.
type Probe func(s *sthread.Sthread, arg vm.Addr)

// Held is one parked session (see App.Hold): the worker invocation is in
// flight and awaits the client. Finish completes the session cleanly;
// Abandon drops the client mid-protocol, forcing the server to unwind a
// worker parked inside its invocation. Callers use exactly one of them.
// Ping, required when the App declares Idle, is one request/response
// exchange that keeps the session active and leaves it parked as Hold
// did.
type Held struct {
	Finish  func() error
	Abandon func() error
	Ping    func() error
}

// App adapts one pooled application to the battery.
type App struct {
	// Name is the serve.App descriptor name, checked against Snapshot.
	Name string
	// Addr is the address the server listens on (e.g. "sshd:22").
	Addr string
	// Transport is how the application is served (zero: Stream).
	Transport Transport
	// Idle is the IdleTimeout New configures (zero: none). A datagram
	// application must set a short one — tens to a few hundred
	// milliseconds — since its sessions end only by real expiries the
	// battery waits for. A nonzero Idle adds the idle cases to Run.
	Idle time.Duration

	// Setup provisions the simulated kernel before boot (users, docroot,
	// mailboxes). Optional.
	Setup func(k *kernel.Kernel) error
	// New builds the server on the root sthread with the given slot
	// count, wiring probe (possibly nil) into the worker compartment's
	// hook. A datagram application's runtime must refuse by datagram
	// (App.Refuse), so a refused session fails rather than times out.
	New func(root *sthread.Sthread, slots int, probe Probe) (Runtime, error)

	// Session drives one complete client session from a fresh principal,
	// returning the secret bytes it caused to cross the slot's argument
	// block (nil when the secret is not client-visible).
	Session func(k *kernel.Kernel) ([]byte, error)
	// Hold starts a session from a fresh principal and returns with the
	// worker invocation provably in flight (the client has received a
	// server response and the protocol awaits the client).
	Hold func(k *kernel.Kernel) (*Held, error)

	// Schema is the application's argument-block schema (the same one its
	// serve.App descriptor carries): the residue battery probes the whole
	// block it sizes (skipping only the two demux words the runtime
	// writes per session) plus the schema-derived arena window just
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
	tr  Transport
	ep  io.Closer // the listener or packet socket

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
			r := &rig{k: k, app: sapp, tr: a.Transport,
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
			if r.ep, err = a.Transport.listen(root.Task, a.Addr); err != nil {
				t.Error(err)
				close(ready)
				return
			}
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

// waitFor yields until cond holds or the deadline passes. The conditions
// it waits on are flipped by goroutines that are already runnable (a
// Drain entering its wait, a session committing its queued lease) or by
// the runtime's own timer wheel, so yielding the processor is both
// sufficient and prompt.
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

// serveLoop runs the runtime-owned serve loop in the background; the
// returned stop closes the endpoint and joins the loop. Stream sessions
// have all completed when stop returns; datagram flows outlive the loop
// until the wheel expires them, so settle is the barrier that covers both.
func (r *rig) serveLoop() (stop func()) {
	served := make(chan struct{})
	go func() {
		r.tr.serve(r.rt, r.ep)
		close(served)
	}()
	return func() {
		r.ep.Close()
		<-served
	}
}

// settle waits for every session to end — which, for flows whose clients
// have gone quiet, means waiting for real wheel expiries.
func settle(t *testing.T, r *rig, when string) {
	t.Helper()
	waitFor(t, "quiescence "+when, func() bool {
		s := r.rt.Snapshot()
		return s.Flows == 0 && s.Inflight == 0 && s.Pool.Busy == 0
	})
}

// checkQuiescent verifies the serving-state baselines: no in-flight
// sessions, no busy slots, no live flows, an empty conn table (a non-zero
// entry count here is a demux-registration leak), and the task table and
// live tag set exactly as they were when the runtime finished
// construction.
func checkQuiescent(t *testing.T, r *rig, when string) {
	t.Helper()
	if s := r.rt.Snapshot(); s.Inflight != 0 || s.Pool.Busy != 0 || s.Flows != 0 {
		t.Errorf("%s: inflight=%d busy=%d flows=%d, want 0/0/0", when, s.Inflight, s.Pool.Busy, s.Flows)
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
	if a.Idle > 0 {
		t.Run("IdleExpiry", a.idleExpiry)
		t.Run("QueuedIsNotIdle", a.queuedIsNotIdle)
	}
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
		stop := r.serveLoop()

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
		settle(t, r, "after the chaos run")
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

// scrubbed fails t unless probe p — the argument block plus the arena
// window past it, as one worker invocation found them — holds none of
// secrets and nothing but zeroes outside the runtime's demux words.
func (a App) scrubbed(t *testing.T, what string, p []byte, secrets [][]byte) {
	t.Helper()
	for _, secret := range secrets {
		if len(secret) > 0 && bytes.Contains(p, secret) {
			t.Fatalf("%s read an earlier principal's secret from the reused slot", what)
		}
	}
	// The demux words are the only bytes legitimately non-zero at
	// invocation start: the runtime writes this session's id and
	// descriptor number there. Which bytes those are is the schema's
	// knowledge, not the adapter's.
	for j, b := range p {
		if b == 0 || a.Schema.IsDemux(j) {
			continue
		}
		if j < a.Schema.Size() {
			t.Fatalf("%s: argument block not scrubbed at +%d (%#x)", what, j, b)
		}
		t.Fatalf("%s: slot arena dirtied past the argument block at +%d (%#x) — "+
			"the scrub never reaches there, so this is a permanent cross-principal channel",
			what, j, b)
	}
}

// blockProbe records the argument block plus the arena window past it at
// the top of every worker invocation.
func (a App) blockProbe() (Probe, func() [][]byte) {
	var mu sync.Mutex
	var probes [][]byte
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		// Runs before this session writes anything beyond the demux
		// words: whatever sits in the window is residue (or the scrub's
		// zeroes).
		buf := make([]byte, a.Schema.Size()+a.Schema.ProbeWindow())
		s.Read(arg, buf)
		mu.Lock()
		probes = append(probes, buf)
		mu.Unlock()
	}
	return probe, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), probes...)
	}
}

// residue: principal A's session leaves its secret in the slot's argument
// block; principals B, C, D (each a fresh principal, C and D after a
// Resize) lease the slot and must observe a fully scrubbed block — the
// §3.3 cross-principal channel, closed by the pool, verified via a probe
// injected into the worker compartment itself. The probe reads the whole
// argument block (every byte a worker can reach is a potential channel,
// not just an app-declared window) plus the schema-derived window of the
// tag arena past the block (Schema.ProbeWindow), where the scrub does not
// reach and therefore nothing may ever be written. Each session settles
// before the next, so the next principal demonstrably reuses the slot.
func (a App) residue(t *testing.T) {
	probe, probes := a.blockProbe()
	a.start(t, 1, probe, func(r *rig) {
		stop := r.serveLoop()
		var secrets [][]byte
		session := func(what string) {
			secret, err := a.Session(r.k)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(secret) > 0 {
				secrets = append(secrets, secret)
			}
			settle(t, r, "after "+what)
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

		ps := probes()
		if len(ps) != 4 {
			t.Fatalf("probes = %d, want 4 (one worker invocation per session)", len(ps))
		}
		for i, p := range ps[1:] {
			a.scrubbed(t, fmt.Sprintf("probe %d", i+1), p, secrets[:min(i+1, len(secrets))])
		}
		checkQuiescent(t, r, "after the residue sessions")
		a.checkClosed(t, r)
	})
}

// drainUndrain: a Drain issued while a session is in flight completes
// that session (a flow by its expiry), refuses new admissions, returns
// only at quiescence, leaks nothing, and Undrain re-admits.
func (a App) drainUndrain(t *testing.T) {
	a.start(t, 2, nil, func(r *rig) {
		stop := r.serveLoop()
		// One session held in flight: Hold returns only once the client
		// has a server response in hand, which proves the worker
		// invocation is running and the slot is leased.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if s := r.rt.Snapshot(); s.Inflight != 1 || s.Pool.Busy != 1 {
			t.Fatalf("held session: inflight=%d busy=%d, want 1/1", s.Inflight, s.Pool.Busy)
		}

		// Drain in the background: it must block on the held session.
		drained := make(chan struct{})
		go func() {
			r.rt.Drain()
			close(drained)
		}()
		waitFor(t, "draining state", func() bool { return r.rt.Snapshot().State == serve.StateDraining })
		select {
		case <-drained:
			t.Fatal("Drain returned with a session still in flight")
		default:
		}

		// A new principal is refused, and the operator counts it. A stream
		// caller gets the typed overload error; a datagram client gets the
		// app's Refuse reply, which fails its session.
		if r.tr == Stream {
			cl, late := netsim.Pipe("late-client", a.Addr)
			err := r.rt.ServeConn(late)
			cl.Close()
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
		} else if _, err := a.Session(r.k); err == nil {
			t.Fatal("session admitted during drain")
		}
		if s := r.rt.Snapshot(); s.Rejected != 1 {
			t.Fatalf("rejected = %d, want 1", s.Rejected)
		}

		// The held session completes normally and Drain returns — for a
		// flow, once the wheel expires it.
		if err := held.Finish(); err != nil {
			t.Fatalf("in-flight session during drain: %v", err)
		}
		waitFor(t, "drain completion", func() bool {
			select {
			case <-drained:
				return true
			default:
				return false
			}
		})
		s := r.rt.Snapshot()
		if s.State != serve.StateDraining {
			t.Fatalf("post-drain state = %v, want draining", s.State)
		}
		if s.Served != 1 || s.Failed != 0 || s.Rejected != 1 || s.Drains != 1 {
			t.Fatalf("served=%d failed=%d rejected=%d drains=%d, want 1/0/1/1",
				s.Served, s.Failed, s.Rejected, s.Drains)
		}
		if want := r.tr.expirations(1); s.Expired != want {
			t.Fatalf("expired = %d, want %d", s.Expired, want)
		}
		checkQuiescent(t, r, "after drain")

		// Undrain re-admits: a complete session succeeds.
		r.rt.Undrain()
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("session after undrain: %v", err)
		}
		settle(t, r, "after the undrain session")
		stop()
		if s := r.rt.Snapshot(); s.Served != 2 || s.Failed != 0 {
			t.Fatalf("after undrain: served=%d failed=%d, want 2/0", s.Served, s.Failed)
		}
		a.checkClosed(t, r)
	})
}

// resizeUnderLoad: the pool grows and shrinks while sessions are in
// flight — including shrinking past the slot a held session occupies —
// and no session is lost. The concurrent sessions outnumber the free
// slots, and the shrink lands while they run, so on datagrams their
// completion takes several expiry waves: resize under genuine lease
// churn.
func (a App) resizeUnderLoad(t *testing.T) {
	const sessions = 8
	a.start(t, 2, nil, func(r *rig) {
		stop := r.serveLoop()

		// Hold one slot busy across both resizes.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if err := r.rt.Resize(4); err != nil {
			t.Fatalf("grow under load: %v", err)
		}
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			go func() {
				_, err := a.Session(r.k)
				errs <- err
			}()
		}
		// Shrink below the held slot while its session is in flight: the
		// slot retires only when the lease is released.
		if err := r.rt.Resize(1); err != nil {
			t.Fatalf("shrink under load: %v", err)
		}
		if err := held.Finish(); err != nil {
			t.Fatalf("held session: %v", err)
		}
		for i := 0; i < sessions; i++ {
			if err := <-errs; err != nil {
				t.Errorf("session during resize: %v", err)
			}
		}
		settle(t, r, "after the resize sessions")
		stop()

		// Drain/Undrain as a quiescence barrier (Drain returns only when
		// every lease is released), then verify the ledger.
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

// leaks: clean sessions, a bare client leg that goes away at once, and a
// mid-protocol abandonment all return the kernel task table and the live
// tag set to the serving baseline — nothing accumulates per session on
// the pooled path — and Close returns both to the pre-runtime baseline.
func (a App) leaks(t *testing.T) {
	a.start(t, 2, nil, func(r *rig) {
		stop := r.serveLoop()
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("first session: %v", err)
		}
		// A bare leg that vanishes: a connection hung up at once, or a
		// datagram from a principal that never reads its reply. The worker
		// fails its read (or its flow expires) and the session unwinds.
		bare, err := r.tr.knock(r.k, a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		bare.Close()
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
		settle(t, r, "after the leak sessions")
		stop()
		checkQuiescent(t, r, "after the leak sessions")
		a.checkClosed(t, r)
	})
}

// batchRingResidue is the batched-dataplane extension of residue: with
// one slot, strictly sequential sessions alternate between the ring's two
// positions, so principal i's worker invocation runs at position i%2
// while principal i-1's finished entry sits at the other. The probe
// therefore reads two windows: its own argument block (scrubbed but for
// the demux words, as in residue) and the other ring position in full —
// which must be all zeroes, because the dispatch-side principal-switch
// scrub zeroes every finished foreign entry before the body runs. The
// battery's principals are all distinct (every session dials a fresh
// client leg), so the run must record principal-switch scrubs and zero
// same-principal skips: a skip here would mean warm-entry state crossed a
// principal switch.
func (a App) batchRingResidue(t *testing.T) {
	const sessions = 4
	argSize := a.Schema.Size()
	stride := vm.Addr((argSize + 7) &^ 7) // the ring's entry stride (gatepool entry size)
	var mu sync.Mutex
	var own, other [][]byte
	var args []vm.Addr
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		o := make([]byte, argSize)
		s.Read(arg, o)
		mu.Lock()
		idx := len(own)
		mu.Unlock()
		// Position 0's other position lies one stride above it, position
		// 1's one stride below.
		ot := make([]byte, stride)
		if idx%2 == 0 {
			s.Read(arg+stride, ot)
		} else {
			s.Read(arg-stride, ot)
		}
		mu.Lock()
		own = append(own, o)
		other = append(other, ot)
		args = append(args, arg)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *rig) {
		stop := r.serveLoop()
		var secrets [][]byte
		for i := 0; i < sessions; i++ {
			secret, err := a.Session(r.k)
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if len(secret) > 0 {
				secrets = append(secrets, secret)
			}
			settle(t, r, fmt.Sprintf("after session %d", i))
		}
		stop()

		mu.Lock()
		defer mu.Unlock()
		if len(own) != sessions {
			t.Fatalf("probes = %d, want %d (one worker invocation per session)", len(own), sessions)
		}
		for i, arg := range args {
			if arg != args[0]+vm.Addr(i%2)*stride {
				t.Fatalf("session %d ran at %#x, want position %d of the ring at %#x", i, arg, i%2, args[0])
			}
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
			for j, b := range other[i] {
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
// entry's body while a bare client leg admits a second session, whose
// lease waits in the pool queue for the ring (visible as pool backlog).
// Both clients then vanish — the queued one before its entry ever
// dispatched, the held one mid-invocation. The runtime must retire both
// entries, balance its admission ledger, drain the backlog to zero, and
// return task and tag accounting to the serving baseline; Close must
// reach the pre-runtime baseline.
func (a App) batchAbandonedEntries(t *testing.T) {
	a.start(t, 1, nil, func(r *rig) {
		stop := r.serveLoop()
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		queued, err := r.tr.knock(r.k, a.Addr)
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
		settle(t, r, "after the abandoned entries retire")
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
// battery did — admission counters, expiries, the datagram demux's
// counters, pool counters, pin hints, lifecycle state, through Close.
func (a App) snapshot(t *testing.T) {
	const sessions = 5
	const slots = 3
	a.start(t, slots, nil, func(r *rig) {
		stop := r.serveLoop()
		for i := 0; i < sessions; i++ {
			if _, err := a.Session(r.k); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		settle(t, r, "after the snapshot sessions")
		stop()

		s := r.rt.Snapshot()
		if s.App != a.Name {
			t.Errorf("snapshot app = %q, want %q", s.App, a.Name)
		}
		if s.State != serve.StateServing {
			t.Errorf("state = %v, want serving", s.State)
		}
		if s.Inflight != 0 || s.Waiting != 0 || s.Flows != 0 {
			t.Errorf("inflight=%d waiting=%d flows=%d, want 0/0/0", s.Inflight, s.Waiting, s.Flows)
		}
		if s.Admitted != sessions || s.Served != sessions {
			t.Errorf("admitted=%d served=%d, want %d/%d", s.Admitted, s.Served, sessions, sessions)
		}
		if want := r.tr.expirations(sessions); s.Expired != want {
			t.Errorf("expired = %d, want %d", s.Expired, want)
		}
		if r.tr == Datagram && s.Packets < sessions || r.tr == Stream && s.Packets != 0 {
			t.Errorf("packets = %d over %d %s sessions", s.Packets, sessions, r.tr)
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

// idleExpiry: a session retired by the wheel — its client simply stops
// talking, no close, no protocol end — must reclaim the slot through the
// full teardown path: the lease is released and task and tag accounting
// return to the serving baseline without any client action, and the
// next principal to lease the same slot observes a fully scrubbed
// argument block. Expiry closes the session through EndConn and the
// scrub, not around them.
func (a App) idleExpiry(t *testing.T) {
	probe, probes := a.blockProbe()
	a.start(t, 1, probe, func(r *rig) {
		stop := r.serveLoop()

		// Principal A leaves its secret in the slot.
		secret, err := a.Session(r.k)
		if err != nil {
			t.Fatalf("principal A: %v", err)
		}
		settle(t, r, "after principal A")
		expired := r.rt.Snapshot().Expired

		// Principal B goes silent mid-protocol. The wheel — and nothing
		// else — ends its session. The session retires the admission last,
		// after the lease is gone, so wait for the whole unwind.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("principal B: %v", err)
		}
		waitFor(t, "idle expiry of principal B's session", func() bool {
			return r.rt.Snapshot().Expired > expired
		})
		settle(t, r, "after expiry")
		// Expiry reclaimed the slot: lease released, conn entry gone, and
		// the kernel accounting back to the serving baseline.
		checkQuiescent(t, r, "after expiry")
		if s := r.rt.Snapshot(); s.Served != 2 || s.Expired != expired+1 {
			t.Fatalf("served=%d expired=%d, want 2/%d (the expired session completed its ledger entry)",
				s.Served, s.Expired, expired+1)
		}
		held.Abandon() // release the client leg the server already closed

		// Principal C leases the same (only) slot: no residue.
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("principal C: %v", err)
		}
		settle(t, r, "after principal C")
		stop()

		ps := probes()
		if len(ps) != 3 {
			t.Fatalf("probes = %d, want 3", len(ps))
		}
		a.scrubbed(t, "principal C's worker, after expiry reuse", ps[2], [][]byte{secret})
		checkQuiescent(t, r, "after the expiry sessions")
		a.checkClosed(t, r)
	})
}

// queuedIsNotIdle: waiting for a ring is not idleness. With one slot held
// by a live session, a second principal's session waits in the pool queue
// for several idle windows; once the ring frees it must be served in full
// — its idle clock starts when its entry dispatches, not at admission.
func (a App) queuedIsNotIdle(t *testing.T) {
	a.start(t, 1, nil, func(r *rig) {
		stop := r.serveLoop()
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if held.Ping == nil {
			t.Fatal("the adapter declares Idle but its Held has no Ping")
		}
		queued := make(chan error, 1)
		go func() {
			_, err := a.Session(r.k)
			queued <- err
		}()
		waitFor(t, "a second session queued behind the held one", func() bool {
			return r.rt.PoolStats().Backlog >= 1
		})
		// Keep the held session active while several idle windows pass.
		for end := time.Now().Add(4 * a.Idle); time.Now().Before(end); {
			time.Sleep(a.Idle / 4)
			if err := held.Ping(); err != nil {
				t.Fatalf("keeping the held session active: %v", err)
			}
		}
		select {
		case err := <-queued:
			t.Fatalf("queued session ended before the ring freed: %v", err)
		default:
		}
		if err := held.Finish(); err != nil {
			t.Fatalf("held session: %v", err)
		}
		select {
		case err := <-queued:
			if err != nil {
				t.Fatalf("session queued for %v: %v", 4*a.Idle, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the queued session was never served after the ring freed")
		}
		settle(t, r, "after both sessions")
		stop()
		s := r.rt.Snapshot()
		if s.Admitted != 2 || s.Served != 2 || s.Failed != 0 {
			t.Errorf("admitted=%d served=%d failed=%d, want 2/2/0", s.Admitted, s.Served, s.Failed)
		}
		if want := r.tr.expirations(2); s.Expired != want {
			t.Errorf("expired = %d, want %d", s.Expired, want)
		}
		checkQuiescent(t, r, "after the queued session")
		a.checkClosed(t, r)
	})
}
