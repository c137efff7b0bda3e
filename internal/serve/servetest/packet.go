// The datagram conformance battery: the packet-mode counterpart of Run.
// The cases assert the same invariants — residue scrub, drain semantics,
// resize under load, leak accounting, snapshot consistency — with the
// transport differences the datagram runtime introduces:
//
//   - There is no accept loop and no per-connection error return. A
//     rejected admission is observed the way a client observes it (the
//     app's Refuse datagram fails the session) and the way an operator
//     does (Snapshot.Rejected).
//   - Flows end by idle expiry, not by close. Every quiescence point
//     therefore waits for the wheel: the battery requires adapters to
//     configure a short IdleTimeout (a few hundred milliseconds) so the
//     suite runs in seconds.
//   - The new IdleExpiry case is datagram-specific: a flow retired by
//     the wheel — not by a clean protocol close — must reclaim the slot
//     pin (lease released, conn entry gone, task and tag counts back to
//     the serving baseline), and the next principal to lease the slot
//     must observe a fully scrubbed argument block. Expiry taking the
//     §3.3 scrub path, not a shortcut around it, is the invariant.
package servetest

import (
	"bytes"
	"fmt"
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

// PacketRuntime is the datagram-runtime surface the battery drives.
// Every pooled datagram server satisfies it by embedding
// *serve.PacketRuntime[T].
type PacketRuntime interface {
	ServePackets(*netsim.PacketConn) error
	Drain()
	Undrain()
	Resize(int) error
	SetQueue(int)
	Snapshot() serve.Snapshot
	PoolStats() gatepool.Stats
	Close() error
	IdleTimeout() time.Duration
}

// PacketApp adapts one pooled datagram application to the battery. The
// fields mirror App; New must configure a short IdleTimeout (the battery
// waits on real expiries) and a Refuse hook (the battery's drained
// session must fail by datagram, not by timeout). Session and Hold dial
// fresh packet sockets per call, so every call is a fresh principal.
type PacketApp struct {
	Name string
	Addr string

	Setup func(k *kernel.Kernel) error
	New   func(root *sthread.Sthread, slots int, probe Probe) (PacketRuntime, error)

	Session func(k *kernel.Kernel) ([]byte, error)
	Hold    func(k *kernel.Kernel) (*Held, error)

	Schema     *gateabi.Schema
	StaticTags int
}

// prig is one booted system serving the datagram application under test.
type prig struct {
	k   *kernel.Kernel
	app *sthread.App
	rt  PacketRuntime
	pc  *netsim.PacketConn

	baseTasks, baseTags int
	liveTasks, liveTags int
}

func (a PacketApp) start(t *testing.T, slots int, probe Probe, drive func(r *prig)) {
	t.Helper()
	k := kernel.New()
	if a.Setup != nil {
		if err := a.Setup(k); err != nil {
			t.Fatal(err)
		}
	}
	sapp := sthread.Boot(k)
	ready := make(chan *prig, 1)
	done := make(chan error, 1)
	quit := make(chan struct{})
	go func() {
		done <- sapp.Main(func(root *sthread.Sthread) {
			r := &prig{k: k, app: sapp,
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
			pc, err := root.Task.ListenPacket(a.Addr)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			r.pc = pc
			ready <- r
			<-quit
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

// servePacketLoop runs the runtime-owned packet loop in the background;
// the returned stop closes the socket and joins the loop. Unlike the
// stream serveLoop it is not a quiescence barrier — flows outlive the
// loop until the wheel expires them; settle is the barrier.
func servePacketLoop(r *prig) (stop func()) {
	served := make(chan struct{})
	go func() {
		r.rt.ServePackets(r.pc)
		close(served)
	}()
	return func() {
		r.pc.Close()
		<-served
	}
}

// settle waits for every flow to end — which, for flows whose clients
// have gone quiet, means waiting for real wheel expiries.
func settle(t *testing.T, r *prig, when string) {
	t.Helper()
	waitFor(t, "flow quiescence "+when, func() bool {
		s := r.rt.Snapshot()
		return s.Flows == 0 && s.Inflight == 0 && s.Pool.Busy == 0
	})
}

func checkQuiescentP(t *testing.T, r *prig, when string) {
	t.Helper()
	if s := r.rt.Snapshot(); s.Inflight != 0 || s.Pool.Busy != 0 || s.Flows != 0 {
		t.Errorf("%s: inflight=%d busy=%d flows=%d, want 0/0/0", when, s.Inflight, s.Pool.Busy, s.Flows)
	}
	if s := r.rt.Snapshot(); s.Conns.Entries != 0 {
		t.Errorf("%s: conn-table entries = %d, want 0 (leaked flow registrations)", when, s.Conns.Entries)
	}
	if got := r.k.TaskCount(); got != r.liveTasks {
		t.Errorf("%s: task count %d, want the serving baseline %d", when, got, r.liveTasks)
	}
	if got := len(r.app.Tags.Tags()); got != r.liveTags {
		t.Errorf("%s: live tags %d, want the serving baseline %d", when, got, r.liveTags)
	}
}

func (a PacketApp) checkClosedP(t *testing.T, r *prig) {
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

// RunPacket executes the datagram conformance battery against one
// application: the five shared cases plus the datagram-specific
// IdleExpiry case.
func RunPacket(t *testing.T, a PacketApp) {
	t.Run("Residue", a.residueP)
	t.Run("BatchRingResidue", a.batchRingResidueP)
	t.Run("BatchAbandonedEntries", a.batchAbandonedEntriesP)
	t.Run("DrainUndrain", a.drainUndrainP)
	t.Run("ResizeUnderLoad", a.resizeUnderLoadP)
	t.Run("Leaks", a.leaksP)
	t.Run("Snapshot", a.snapshotP)
	t.Run("IdleExpiry", a.idleExpiry)
}

// residueP: the §3.3 scrub check over flows. With one slot, principals
// A through D each lease the slot in turn (the battery waits for each
// flow to expire so the next principal demonstrably reuses the same
// slot); every probe after A's must show a fully scrubbed block and a
// clean arena window.
func (a PacketApp) residueP(t *testing.T) {
	argSize := a.Schema.Size()
	var mu sync.Mutex
	var probes [][]byte
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		buf := make([]byte, argSize+a.Schema.ProbeWindow())
		s.Read(arg, buf)
		mu.Lock()
		probes = append(probes, buf)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *prig) {
		stop := servePacketLoop(r)
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
		session("principal A")
		session("principal B")
		if err := r.rt.Resize(2); err != nil {
			t.Fatalf("resize: %v", err)
		}
		session("principal C")
		session("principal D")
		stop()
		if err := r.rt.Resize(1); err != nil {
			t.Fatalf("resize back: %v", err)
		}

		mu.Lock()
		defer mu.Unlock()
		if len(probes) != 4 {
			t.Fatalf("probes = %d, want 4 (one worker invocation per flow)", len(probes))
		}
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
				t.Fatalf("probe %d: slot arena dirtied past the argument block at +%d (%#x)", i+1, j, b)
			}
		}
		checkQuiescentP(t, r, "after the residue sessions")
		a.checkClosedP(t, r)
	})
}

// drainUndrainP: a Drain with a held flow blocks until the flow ends
// (here: by expiry after the session completes), rejects first-contact
// packets meanwhile — observable both as the client's refused session
// and as Snapshot.Rejected — and Undrain re-admits.
func (a PacketApp) drainUndrainP(t *testing.T) {
	a.start(t, 2, nil, func(r *prig) {
		stop := servePacketLoop(r)
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if s := r.rt.Snapshot(); s.Inflight != 1 || s.Pool.Busy != 1 {
			t.Fatalf("held flow: inflight=%d busy=%d, want 1/1", s.Inflight, s.Pool.Busy)
		}

		drained := make(chan struct{})
		go func() {
			r.rt.Drain()
			close(drained)
		}()
		waitFor(t, "draining state", func() bool { return r.rt.Snapshot().State == serve.StateDraining })
		select {
		case <-drained:
			t.Fatal("Drain returned with a flow still live")
		default:
		}

		// A new principal's first packet is refused: the session fails
		// (the app's Refuse datagram) and the runtime counts it.
		if _, err := a.Session(r.k); err == nil {
			t.Fatal("session admitted during drain")
		}
		if s := r.rt.Snapshot(); s.Rejected != 1 {
			t.Fatalf("rejected = %d, want 1", s.Rejected)
		}

		// Complete the held session; its flow then expires and the
		// drain completes.
		if err := held.Finish(); err != nil {
			t.Fatalf("in-flight session during drain: %v", err)
		}
		waitFor(t, "drain completion after flow expiry", func() bool {
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
		if s.Served != 1 || s.Rejected != 1 || s.Drains != 1 {
			t.Fatalf("served=%d rejected=%d drains=%d, want 1/1/1", s.Served, s.Rejected, s.Drains)
		}
		if s.Expired != 1 {
			t.Fatalf("expired = %d, want 1 (the held flow ended by expiry)", s.Expired)
		}
		checkQuiescentP(t, r, "after drain")

		r.rt.Undrain()
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("session after undrain: %v", err)
		}
		settle(t, r, "after the undrain session")
		stop()
		a.checkClosedP(t, r)
	})
}

// resizeUnderLoadP: grow and shrink the pool while flows are live —
// including shrinking past the slot a held flow occupies — and lose no
// session.
func (a PacketApp) resizeUnderLoadP(t *testing.T) {
	const sessions = 6
	a.start(t, 2, nil, func(r *prig) {
		stop := servePacketLoop(r)
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if err := r.rt.Resize(4); err != nil {
			t.Fatalf("grow under load: %v", err)
		}
		// Concurrent sessions from distinct principals: more flows than
		// free slots, so completion depends on earlier flows expiring —
		// resize under genuine lease churn.
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			go func() {
				_, err := a.Session(r.k)
				errs <- err
			}()
		}
		if err := r.rt.Resize(1); err != nil {
			t.Fatalf("shrink under load: %v", err)
		}
		// Finish the held session while the concurrent sessions are still
		// in flight: the shrink above retired slots past the one it holds
		// while it was live, and finishing now keeps the hold inside the
		// flow's idle window (the sessions' completion takes several
		// expiry waves — longer than the window by construction).
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
		if err := r.rt.Resize(2); err != nil {
			t.Fatalf("resize back: %v", err)
		}
		checkQuiescentP(t, r, "after resize under load")
		a.checkClosedP(t, r)
	})
}

// leaksP: clean sessions, a fire-and-forget packet from a principal that
// never reads its reply, and a mid-protocol abandonment all expire back
// to the serving baseline; Close returns to the pre-runtime baseline.
func (a PacketApp) leaksP(t *testing.T) {
	a.start(t, 2, nil, func(r *prig) {
		stop := servePacketLoop(r)
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("first session: %v", err)
		}
		// Fire-and-forget: a datagram from a principal that immediately
		// goes away. The flow must still expire cleanly.
		ghost, err := r.k.Net.DialPacket()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ghost.WriteTo([]byte{0xff, 0xfe, 0xfd}, a.Addr); err != nil {
			t.Fatal(err)
		}
		ghost.Close()
		// Mid-protocol abandonment: the worker is provably parked inside
		// its invocation when the client vanishes.
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		if err := held.Abandon(); err != nil {
			t.Fatalf("abandon: %v", err)
		}
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("session after abandonment: %v", err)
		}
		settle(t, r, "after the leak sessions")
		stop()
		checkQuiescentP(t, r, "after the leak sessions")
		a.checkClosedP(t, r)
	})
}

// snapshotP: the observability surface agrees with what the battery did,
// including the packet-loop counters.
func (a PacketApp) snapshotP(t *testing.T) {
	const sessions = 5
	const slots = 3
	a.start(t, slots, nil, func(r *prig) {
		stop := servePacketLoop(r)
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
		if s.Inflight != 0 || s.Flows != 0 {
			t.Errorf("inflight=%d flows=%d, want 0/0", s.Inflight, s.Flows)
		}
		if s.Admitted != sessions || s.Served != sessions {
			t.Errorf("admitted=%d served=%d, want %d/%d", s.Admitted, s.Served, sessions, sessions)
		}
		if s.Expired != sessions {
			t.Errorf("expired = %d, want %d (every flow ends by expiry)", s.Expired, sessions)
		}
		if s.Packets < sessions {
			t.Errorf("packets = %d, want >= %d", s.Packets, sessions)
		}
		if s.Failed != 0 || s.Rejected != 0 || s.Drains != 0 {
			t.Errorf("failed=%d rejected=%d drains=%d, want 0/0/0", s.Failed, s.Rejected, s.Drains)
		}
		if s.Pool.Slots != slots || s.Pool.Busy != 0 {
			t.Errorf("pool slots=%d busy=%d, want %d/0", s.Pool.Slots, s.Pool.Busy, slots)
		}
		if s.Pool.Acquires != sessions {
			t.Errorf("pool acquires = %d, want %d (one lease per flow)", s.Pool.Acquires, sessions)
		}
		if len(s.Pins) != slots {
			t.Errorf("pins = %d, want %d", len(s.Pins), slots)
		}
		a.checkClosedP(t, r)
		if s := r.rt.Snapshot(); s.State != serve.StateClosed || !s.Pool.Closed {
			t.Errorf("post-close snapshot: state=%v pool.closed=%v, want closed/true", s.State, s.Pool.Closed)
		}
	})
}

// batchRingResidueP mirrors the stream battery's batchRingResidue over
// flows: each sequential flow — settled between sessions, so each retires
// by expiry before the next admission — occupies the next ring position,
// and every invocation after the first must find the previous principal's
// ring position scrubbed to zero before its own body runs. All flows dial
// fresh sockets (distinct principals), so the run must record scrubs and
// zero same-principal skips.
func (a PacketApp) batchRingResidueP(t *testing.T) {
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
		// Position 0's lower neighbour is the header array, not an entry.
		if d := depth.Load(); d > 0 && int64(idx)%d != 0 {
			pr = make([]byte, stride)
			s.Read(arg-stride, pr)
		}
		mu.Lock()
		own = append(own, o)
		prev = append(prev, pr)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *prig) {
		st := r.rt.PoolStats()
		depth.Store(int64(st.RingDepth))
		stop := servePacketLoop(r)
		sessions := 4
		if st.RingDepth < sessions {
			sessions = st.RingDepth // keep every flow at a distinct position
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
			settle(t, r, fmt.Sprintf("after session %d", i))
		}
		stop()

		mu.Lock()
		defer mu.Unlock()
		if len(own) != sessions {
			t.Fatalf("probes = %d, want %d (one worker invocation per flow)", len(own), sessions)
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
		checkQuiescentP(t, r, "after the ring residue sessions")
		a.checkClosedP(t, r)
	})
}

// batchAbandonedEntriesP: leak accounting for abandoned ring entries on
// the datagram path. A held flow parks the worker inside its entry's body
// while a new principal's first datagram admits a flow whose lease waits
// in the pool queue for the ring (visible as pool backlog). Both clients
// vanish; the wheel
// must expire both flows, the backlog must drain to zero, the admission
// ledger must balance, and teardown must reach both baselines.
func (a PacketApp) batchAbandonedEntriesP(t *testing.T) {
	a.start(t, 1, nil, func(r *prig) {
		stop := servePacketLoop(r)
		held, err := a.Hold(r.k)
		if err != nil {
			t.Fatalf("hold: %v", err)
		}
		ghost, err := r.k.Net.DialPacket()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ghost.WriteTo([]byte{0xff, 0xfe, 0xfd}, a.Addr); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a committed lease queued while the worker is held", func() bool {
			return r.rt.PoolStats().Backlog >= 1
		})
		// The queued client vanishes while its entry is still undispatched,
		// then the held client abandons mid-invocation.
		ghost.Close()
		if err := held.Abandon(); err != nil {
			t.Fatalf("abandon: %v", err)
		}
		settle(t, r, "after the abandonments")
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
			t.Errorf("admitted = %d, want 2 (the held and the queued flow)", s.Admitted)
		}
		checkQuiescentP(t, r, "after the abandoned entries")
		a.checkClosedP(t, r)
	})
}

// idleExpiry is the datagram-specific case: a flow
// retired by the wheel (client simply stops talking — no close, no
// protocol end) must reclaim the slot pin through the full teardown
// path. Concretely: the lease is released and task/tag accounting
// returns to the serving baseline without any client action, and the
// next principal to lease the same slot observes a fully scrubbed
// argument block — expiry closed the flow through EndConn and the
// scrub, not around them.
func (a PacketApp) idleExpiry(t *testing.T) {
	argSize := a.Schema.Size()
	var mu sync.Mutex
	var probes [][]byte
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		buf := make([]byte, argSize+a.Schema.ProbeWindow())
		s.Read(arg, buf)
		mu.Lock()
		probes = append(probes, buf)
		mu.Unlock()
	}
	a.start(t, 1, probe, func(r *prig) {
		stop := servePacketLoop(r)

		// Principal A leaves its secret in the slot, then goes silent.
		secret, err := a.Session(r.k)
		if err != nil {
			t.Fatalf("principal A: %v", err)
		}

		// The wheel — and nothing else — ends the flow. serveFlow retires
		// the admission last, after the flow and the lease are gone, so
		// wait for the whole unwind, exactly as settle does.
		waitFor(t, "idle expiry of principal A's flow", func() bool {
			return r.rt.Snapshot().Expired >= 1
		})
		settle(t, r, "after expiry")
		// Expiry reclaimed the slot pin: lease released, conn entry
		// gone, and the kernel accounting back to the serving baseline.
		checkQuiescentP(t, r, "after expiry")
		s := r.rt.Snapshot()
		if s.Served != 1 {
			t.Fatalf("served = %d, want 1 (the expired flow completed its ledger entry)", s.Served)
		}

		// Principal B leases the same (only) slot: no residue.
		if _, err := a.Session(r.k); err != nil {
			t.Fatalf("principal B: %v", err)
		}
		settle(t, r, "after principal B")
		stop()

		mu.Lock()
		defer mu.Unlock()
		if len(probes) != 2 {
			t.Fatalf("probes = %d, want 2", len(probes))
		}
		p := probes[1]
		if len(secret) > 0 && bytes.Contains(p, secret) {
			t.Fatal("principal B's worker read principal A's secret after expiry reuse")
		}
		for j, b := range p {
			if b == 0 || a.Schema.IsDemux(j) {
				continue
			}
			if j < argSize {
				t.Fatalf("argument block not scrubbed at +%d (%#x) after expiry reuse", j, b)
			}
			t.Fatalf("slot arena dirtied past the argument block at +%d (%#x)", j, b)
		}
		checkQuiescentP(t, r, "after the expiry sessions")
		a.checkClosedP(t, r)
	})
}
