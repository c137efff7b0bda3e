// Package serve is the wedge-server runtime: one home for the serving
// machinery the pooled application studies (httpd, sshd, pop3, dnsd) used
// to re-implement by hand.
//
// An application is a declarative descriptor (App): the pooled gates it
// wants every slot to carry, which gate is the per-session worker, a
// per-session state type demultiplexed through gatepool.ConnTable, and
// optional per-session setup/teardown hooks. The runtime owns everything
// else:
//
//   - Pool lifecycle: construction from the descriptor, hot Resize, and
//     an auto-slots mode that re-sizes the pool whenever the host
//     parallelism (runtime.GOMAXPROCS) changes — slot count tracks the
//     cores that can actually run slots, not the connection count.
//   - Sessions. A session is one principal's service: one admission, one
//     descriptor, one lease, one ring entry of the worker gate, and
//     teardown in the right order. Two demuxes feed the one session
//     function. Streams arrive ready-made (Serve, ServeConnAs): accept
//     hands over one connection per principal. Datagrams arrive as single
//     packets (ServePackets, or OpenFlow and DeliverPacket from a
//     director): the runtime keys each by its source address into a flow,
//     opening the flow's session on the first packet.
//   - Idle expiry, one mechanism for both: with App.IdleTimeout set, every
//     read, write and delivered datagram stamps the session's conn-table
//     entry, and one timer wheel per runtime retires sessions silent for
//     the whole window through the normal teardown path.
//   - A lifecycle state machine, serving → draining → closed: Drain
//     completes in-flight sessions, rejects new admissions with the
//     typed overload error, and returns only when the pool is quiescent;
//     Undrain re-opens; Close tears everything down.
//   - Admission control: an optional bound (App.Queue) on the sessions
//     admitted beyond the live slot count. The pool never blocks a
//     session: one that finds no free ring waits in the pool's FIFO
//     queue, so this bound is what keeps that queue finite. Overflow
//     fails fast with *OverloadError (errors.Is ErrOverloaded).
//   - Observability: a unified Snapshot (runtime counters + pool stats +
//     queue depth) and NUMA-style slot→CPU pin hints.
//
// The runtime preserves the isolation argument the servers share:
// per-session state is looked up by a worker-supplied (untrusted) conn id
// and then pinned to the invoking slot — Lookup returns state only when
// it anchors at exactly the invocation's argument block — so a
// compromised worker cannot reach another slot's session.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/timerwheel"
	"wedge/internal/vm"
)

// State is a runtime's lifecycle position.
type State int32

// The lifecycle state machine: StateServing admits connections,
// StateDraining completes in-flight ones while rejecting admissions, and
// StateClosed is terminal.
const (
	StateServing State = iota
	StateDraining
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrOverloaded is the errors.Is target for every admission-control
// rejection (queue overflow, draining, closed).
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError is the typed admission rejection. State says why: a
// StateServing rejection is queue overflow (Inflight reached Limit); a
// draining or closed runtime rejects every admission.
type OverloadError struct {
	App      string
	State    State
	Inflight int
	Limit    int
}

func (e *OverloadError) Error() string {
	if e.State != StateServing {
		return fmt.Sprintf("serve: %s is %s", e.App, e.State)
	}
	return fmt.Sprintf("serve: %s overloaded: %d connections in flight, admission limit %d",
		e.App, e.Inflight, e.Limit)
}

// Is makes errors.Is(err, ErrOverloaded) match every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// DefaultSlots is the one slot-count policy every pooled application
// shares: twice the host parallelism, floored at two. Slot count should
// track available parallelism, not connection concurrency — slots beyond
// the cores that can run them add scheduling churn without overlapping
// any work, while admission control absorbs the excess connections.
func DefaultSlots() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// Conn is one in-flight session's record — a stream connection or a
// datagram flow: the slot lease, the installed descriptor, and the
// application's own state. Gate entries reach it through Lookup; the App
// hooks receive it directly.
type Conn[T any] struct {
	Principal string
	FD        int
	Lease     *gatepool.Lease
	State     T

	// Resumed is true when this session was re-admitted from a
	// HandoffRecord (ResumeConnAs, OpenFlow) rather than freshly
	// admitted — the app's worker should skip protocol steps the
	// exporting runtime already performed (greetings, auth it
	// re-imported, ...).
	Resumed bool

	// file is the session's descriptor; closing it fails the worker's
	// blocked read, which is how both expiry and handoff unwind it.
	file kernel.FileLike

	// Idle expiry: started flips when the worker first looks the session
	// up (its ring entry has dispatched), and timer is the pending check.
	started atomic.Bool
	timer   atomic.Pointer[timerwheel.Timer]

	// Handoff rendezvous. hmu orders the one race that matters: a
	// HandoffPrincipal marking the session against its normal completion.
	// Exactly one side wins — a marked session unwinds as handed, a
	// completing session refuses the mark.
	hmu        sync.Mutex
	completing bool
	hand       *handoff
}

// App declares a pooled wedge application. The runtime instantiates
// Gates on every pool slot and serves each session — a stream connection
// or a datagram flow — with one ring entry of the Worker gate; the pool
// writes the session's demux id and descriptor number into the entry's
// argument block at the Schema's reserved demux words when the entry
// dispatches.
type App[T any] struct {
	Name  string // pool name, sthread-name prefix, error prefix
	Slots int    // initial slot count (<= 0: DefaultSlots)

	// Schema is the declarative layout of every slot's argument block
	// (internal/gateabi): it sizes the block, derives the pool's scrub
	// footprint, and must reserve both demux words (gateabi.ConnID and
	// gateabi.FD) for the runtime. Gate bodies read and write arguments
	// only through the schema's typed field handles.
	Schema *gateabi.Schema

	// Gates are the defs every slot carries. The Worker def may provide
	// a Batch body looping over its ring entries; a def with only an
	// Entry is wrapped in the canonical drain loop automatically.
	Gates []gatepool.GateDef
	// Worker is the Gates entry invoked once per session. On a datagram
	// flow its descriptor reads one whole datagram per Read and sends one
	// whole datagram back to the flow's peer per Write.
	Worker string

	// Queue bounds admission, and with it the pool's FIFO queue of
	// sessions waiting for a free ring: 0 admits without bound, n > 0
	// admits at most n sessions beyond the live slot count, n < 0 admits
	// only up to the live slot count (no waiting). SetQueue adjusts it
	// live.
	Queue int

	// AutoSlots makes the slot count track DefaultSlots(): each
	// admission compares the current GOMAXPROCS-derived target against
	// the last one applied and resizes the pool when it moved.
	AutoSlots bool

	// IdleTimeout, when positive, arms idle expiry: a session with no
	// read, write or delivered datagram for this long is closed by the
	// runtime's timer wheel (the worker's blocked read fails and the
	// session unwinds through the normal teardown path, so EndConn,
	// scrubbing, and leak accounting all still run). A session's idle
	// clock starts when its ring entry dispatches: waiting for a ring is
	// not idleness, and neither is a flow's worker answering a datagram
	// it read, however long that takes. One wheel serves the whole
	// runtime — no goroutine or runtime timer per session. Zero disables
	// expiry, and then the runtime refuses datagram flows: there is no
	// FIN, so a flow that could not expire would pin its slot forever.
	IdleTimeout time.Duration

	// InitConn populates c.State after the lease is acquired (the lease
	// and its gates are available). Optional.
	InitConn func(c *Conn[T]) error
	// EndConn runs after the worker invocation, before the slot is
	// released — the place to undo per-session changes to slot-owned
	// resources (sshd demotes its promoted worker here). Optional.
	EndConn func(c *Conn[T])
	// Finish interprets the worker invocation's result; its error is
	// ServeConn's return. When nil, a worker error is wrapped and
	// returned as-is and the return value is not interpreted. Optional.
	Finish func(c *Conn[T], ret vm.Addr, err error) error

	// Export serializes the app-level state a handed-off session needs at
	// its new home. It must never include secrets the importing side does
	// not already hold (private keys, passwords): the record crosses the
	// cluster's trust boundary in the clear, and the new runtime
	// re-derives secret material from its own store. Optional; nil
	// exports no app state.
	Export func(c *Conn[T]) []byte
	// Import restores Export's payload into a resumed session before its
	// worker runs. The payload arrived from another runtime and must be
	// treated as hostile input — length- and bounds-checked like any gate
	// argument; an error refuses the resume. Optional.
	Import func(c *Conn[T], rec *HandoffRecord) error

	// Refuse builds the datagram sent back when a flow's first packet is
	// refused (queue overflow, draining, closed, no IdleTimeout), so
	// clients see overload instead of a timeout. nil, or a nil return,
	// drops the packet silently. Streams report refusals as ServeConn's
	// error instead.
	Refuse func(payload []byte, err error) []byte
}

// Runtime serves one App over streams, datagrams, or both. All methods
// are safe for concurrent use.
type Runtime[T any] struct {
	root  *sthread.Sthread
	app   App[T]
	pool  *gatepool.Pool
	conns gatepool.ConnTable[*Conn[T]]

	// The schema's demux-word offsets, resolved once: Lookup sits on the
	// hot path.
	connOff, fdOff vm.Addr

	mu         sync.Mutex
	quiet      *sync.Cond // signaled when inflight drops to zero or state changes
	state      State
	queue      int
	auto       bool
	autoTarget int // last slot target applied by auto mode
	inflight   int

	admitted    uint64
	served      uint64
	failed      uint64
	handed      uint64
	rejected    uint64
	drains      uint64
	autoResizes uint64
	expired     uint64
	idleResched uint64

	// wheel drives idle expiry; nil when App.IdleTimeout is zero.
	wheel *timerwheel.Wheel

	// The datagram demux: live flows by source address. fmu also orders
	// a flow's conn-table removal against delivery (see removeIfIdle).
	fmu     sync.Mutex
	flows   map[string]*flow
	packets uint64
}

// idleTick picks a wheel quantum for an idle timeout: coarse enough that
// the wheel goroutine is near-free, fine enough that a reap lands within
// a small fraction of the timeout past the deadline.
func idleTick(idle time.Duration) time.Duration {
	tick := idle / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	return tick
}

// New builds a runtime from the descriptor: the pool (and so every
// slot's tag and gates) is created on root, exactly as a hand-built
// pooled server would.
func New[T any](root *sthread.Sthread, app App[T]) (*Runtime[T], error) {
	if app.Worker == "" {
		return nil, errors.New("serve: App.Worker must name the per-session gate")
	}
	found := false
	for _, g := range app.Gates {
		if g.Name == app.Worker {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("serve: worker gate %q is not in App.Gates", app.Worker)
	}
	// The runtime writes two 64-bit words into every slot's argument
	// block; the schema must reserve them. (The schema's computed layout
	// makes the overlap and out-of-block failure modes of the old
	// hand-declared offsets unrepresentable.)
	if app.Schema == nil {
		return nil, fmt.Errorf("serve: %s: App.Schema is required", app.Name)
	}
	if !app.Schema.HasDemux() {
		return nil, fmt.Errorf("serve: %s: schema %q does not reserve the conn-id and fd demux words",
			app.Name, app.Schema.Name())
	}
	slots := app.Slots
	if slots <= 0 || app.AutoSlots {
		slots = DefaultSlots()
	}
	r := &Runtime[T]{
		root:    root,
		app:     app,
		state:   StateServing,
		queue:   app.Queue,
		auto:    app.AutoSlots,
		connOff: app.Schema.ConnIDOff(),
		fdOff:   app.Schema.FDOff(),
		flows:   make(map[string]*flow),
	}
	if app.IdleTimeout > 0 {
		// Touch tracking is opt-in: a runtime that never expires skips
		// the clock read and stamp store on every conn-table Put.
		r.conns.TrackIdle()
	}
	r.quiet = sync.NewCond(&r.mu)
	if r.auto {
		r.autoTarget = slots
	}
	// The worker def drains a ring. An app that ships only an Entry gets
	// the canonical loop: dispatch every entry through the same gateabi
	// handles, one Complete per entry. The slice is copied so the
	// caller's App value is not mutated behind its back.
	gates := append([]gatepool.GateDef(nil), app.Gates...)
	for i := range gates {
		if gates[i].Name != app.Worker || gates[i].Batch != nil {
			continue
		}
		entry := gates[i].Entry
		trusted := gates[i].Trusted
		gates[i].Batch = func(g *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
			for b.More() {
				b.Complete(entry(g, b.Arg(), trusted))
			}
		}
	}
	pool, err := gatepool.New(root, gatepool.Config{
		Name:   app.Name,
		Slots:  slots,
		Schema: app.Schema,
		Gates:  gates,
	})
	if err != nil {
		return nil, err
	}
	r.pool = pool
	if app.IdleTimeout > 0 {
		r.wheel = timerwheel.New(idleTick(app.IdleTimeout), 0)
		r.wheel.Start()
	}
	return r, nil
}

// setClock injects a monotonic time source (nanosecond readings, never
// zero, never backwards) into the idle machinery: the conn table's touch
// stamps and the expiry checks both follow it. Test hook; call before
// serving.
func (r *Runtime[T]) setClock(now func() int64) { r.conns.SetClock(now) }

// Lookup demultiplexes a gate invocation back to its session record:
// the conn id is read from the invocation's argument block, resolved
// through the table, and the result pinned to the slot — the record must
// anchor at exactly this argument block (Lease.Arg == arg) and carry the
// descriptor number the runtime wrote (both are worker-writable, so a
// forged id or fd fails the pin instead of reaching another slot's
// session). Returns nil when the pin fails.
//
// A worker looks its session up first thing in its entry, so the first
// successful Lookup marks the entry's dispatch: under IdleTimeout it
// stamps the session and starts its idle clock.
func (r *Runtime[T]) Lookup(g *sthread.Sthread, arg vm.Addr) *Conn[T] {
	id := g.Load64(arg + r.connOff)
	c, ok := r.conns.Get(id)
	if !ok || c.Lease.Arg != arg || g.Load64(arg+r.fdOff) != uint64(c.FD) {
		return nil
	}
	if r.wheel != nil && !c.started.Load() {
		r.conns.Touch(id)
		c.started.Store(true)
	}
	return c
}

// admit applies the lifecycle gate and the bounded queue. It must be
// paired with depart.
func (r *Runtime[T]) admit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateServing {
		r.rejected++
		return &OverloadError{App: r.app.Name, State: r.state}
	}
	if r.queue != 0 {
		q := r.queue
		if q < 0 {
			q = 0
		}
		limit := r.pool.LiveSlots() + q
		if r.inflight >= limit {
			r.rejected++
			return &OverloadError{App: r.app.Name, State: r.state,
				Inflight: r.inflight, Limit: limit}
		}
	}
	r.inflight++
	r.admitted++
	return nil
}

// departAs retires an admission under its outcome counter (served,
// failed, or handed) in one critical section, so the ledger invariant
//
//	admitted == served + failed + handed + inflight
//
// holds at every instant a Snapshot can observe — the cluster director's
// two-choice load reads depend on never seeing a torn pair (inflight
// decremented, outcome not yet counted, or vice versa).
func (r *Runtime[T]) departAs(counter *uint64) {
	r.mu.Lock()
	*counter++
	r.inflight--
	if r.inflight == 0 {
		r.quiet.Broadcast()
	}
	r.mu.Unlock()
}

func (r *Runtime[T]) count(counter *uint64) {
	r.mu.Lock()
	*counter++
	r.mu.Unlock()
}

// autoSync applies auto-slots mode: when the GOMAXPROCS-derived target
// moved since the last application, resize the pool to it. Called on
// every admission; the comparison is two loads, the Resize only happens
// when host parallelism actually changed.
func (r *Runtime[T]) autoSync() {
	r.mu.Lock()
	if !r.auto || r.state != StateServing {
		r.mu.Unlock()
		return
	}
	target := DefaultSlots()
	if max := r.pool.MaxSlots(); target > max {
		target = max
	}
	if target == r.autoTarget {
		r.mu.Unlock()
		return
	}
	r.autoTarget = target
	r.autoResizes++
	r.mu.Unlock()
	// Resize runs off the runtime lock: it creates gate sthreads. A
	// racing Drain makes it fail with ErrDraining, which is fine — the
	// next serving-state admission will retry the moved target.
	if err := r.pool.Resize(target); err != nil {
		r.mu.Lock()
		r.autoTarget = 0 // retry on the next admission
		r.mu.Unlock()
	}
}

// ServeConn serves one connection, sharding by the peer's network
// address.
func (r *Runtime[T]) ServeConn(conn *netsim.Conn) error {
	return r.ServeConnAs(conn, conn.RemoteAddr())
}

// ServeConnAs is ServeConn with an explicit principal, for callers that
// know a better identity than the network address. While no ring is free
// the session waits in the pool's FIFO queue (unless the queue bound
// rejects it first); it returns when the worker invocation — one
// invocation per connection, zero sthread creations — completes.
func (r *Runtime[T]) ServeConnAs(conn *netsim.Conn, principal string) error {
	r.autoSync()
	if err := r.admit(); err != nil {
		return err
	}
	return r.session(principal, r.streamFile(conn), nil, nil)
}

// streamFile is the stream demux's descriptor: the connection itself, or
// under IdleTimeout the connection with its reads and writes stamping the
// session's conn-table entry.
func (r *Runtime[T]) streamFile(conn *netsim.Conn) kernel.FileLike {
	if r.wheel == nil {
		return conn
	}
	return &stampedConn{Conn: conn, activity: activity{stamp: r.conns.Touch}}
}

// activity links a session's descriptor to its conn-table entry: use of
// the descriptor refreshes the entry's idle stamp, which is all the
// expiry check reads.
type activity struct {
	id    atomic.Uint64        // conn-table id; 0 until the session registers
	stamp func(id uint64) bool // the runtime's ConnTable.Touch
}

func (a *activity) bind(id uint64) { a.id.Store(id) }
func (a *activity) touch()         { a.stamp(a.id.Load()) }

type stampedConn struct {
	*netsim.Conn
	activity
}

func (c *stampedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.touch()
	}
	return n, err
}

func (c *stampedConn) Write(b []byte) (int, error) {
	c.touch()
	return c.Conn.Write(b)
}

// session runs one admitted session to its outcome, whichever demux
// admitted it: one descriptor, one lease, one worker ring entry. f is the
// datagram flow the session serves (nil for a stream), and rec, when
// non-nil, resumes a handed-off session: it is marked Resumed and the
// record's app payload is imported (as hostile input) before the worker
// runs. The admission is already counted; exactly one outcome counter is
// incremented on the way out, in the same critical section as the
// inflight decrement (departAs). Teardown runs in reverse: EndConn,
// conn-table removal (with the flow's demux entry), lease release (and
// so inter-principal scrubbing), descriptor close — whether the worker
// returned on its own or expiry or handoff closed its descriptor.
func (r *Runtime[T]) session(principal string, file kernel.FileLike, f *flow, rec *HandoffRecord) error {
	outcome := &r.failed
	defer func() { r.departAs(outcome) }()
	if f != nil {
		defer file.Close()
	}

	root := r.root
	fd := root.Task.InstallFD(file, kernel.FDRW)
	defer root.Task.CloseFD(fd)

	// The conn-table entry (and a flow's demux entry) is removed before
	// the lease is released: an id must never outlive the ring position
	// it pins to, which the next principal may lease.
	var id uint64
	var lease *gatepool.Lease
	defer func() {
		r.unregister(id, f)
		if lease != nil {
			lease.Release()
		}
	}()
	lease, err := r.pool.Acquire(principal)
	if err != nil {
		return fmt.Errorf("%s: acquire: %w", r.app.Name, err)
	}

	c := &Conn[T]{Principal: principal, FD: fd, Lease: lease,
		Resumed: rec != nil, file: file}
	if r.app.InitConn != nil {
		if err := r.app.InitConn(c); err != nil {
			return fmt.Errorf("%s: init: %w", r.app.Name, err)
		}
	}
	// EndConn unwinds before the lease release, so per-session changes to
	// slot-owned resources are undone before another principal can lease
	// the slot.
	if r.app.EndConn != nil {
		defer r.app.EndConn(c)
	}
	if rec != nil && r.app.Import != nil {
		if err := r.app.Import(c, rec); err != nil {
			return fmt.Errorf("%s: import: %w", r.app.Name, err)
		}
	}
	id = r.conns.Put(c)
	if r.wheel != nil {
		// Under IdleTimeout every session file stamps its entry: a
		// stampedConn or a flow.
		file.(interface{ bind(uint64) }).bind(id)
		r.watch(c, id, f)
		defer func() {
			if t := c.timer.Load(); t != nil {
				t.Cancel(r.wheel)
			}
		}()
	}

	// Commit the ring entry and await completion. The pool writes the
	// demux words at dispatch, after the principal-switch scrub pass, so
	// nothing is stored here.
	ret, err := lease.CallBatch(root, id, fd, kernel.FDRW)
	// Completion/handoff rendezvous: from here the session can no longer
	// be marked for handoff. If a mark already landed, the interrupted
	// invocation is the handoff mechanism at work, not a failure — finish
	// the export and unwind as handed.
	c.hmu.Lock()
	c.completing = true
	h := c.hand
	c.hmu.Unlock()
	if h != nil {
		r.finishExport(c, h)
		outcome = &r.handed
		return ErrHandedOff
	}
	if r.app.Finish != nil {
		err = r.app.Finish(c, ret, err)
	} else if err != nil {
		err = fmt.Errorf("%s: %s: %w", r.app.Name, r.app.Worker, err)
	}
	if err != nil {
		return err
	}
	outcome = &r.served
	return nil
}

// unregister removes a session's conn-table entry; a flow leaves the
// demux map in the same critical section, so a later datagram from its
// peer opens a fresh flow instead of landing in a dying one.
func (r *Runtime[T]) unregister(id uint64, f *flow) {
	if f == nil {
		r.conns.Delete(id)
		return
	}
	r.fmu.Lock()
	r.conns.Delete(id)
	r.unmapLocked(f)
	r.fmu.Unlock()
}

// watch arms a session's idle check on the runtime's wheel. The check
// fires a full window after registration. A session whose entry has not
// dispatched yet is waiting for a ring, not idle: its check re-arms for
// the full window. A dispatched session silent for the whole window is
// removed from the conn table — atomically against Touch, and for a flow
// against delivery — and its descriptor closed; the worker's unwind does
// every piece of real teardown. An active session re-arms for its
// remaining window, so it costs one cheap wheel callback per idle period,
// not per byte. A check that finds the entry gone leaves the session to
// its own teardown.
func (r *Runtime[T]) watch(c *Conn[T], id uint64, f *flow) {
	idle := r.app.IdleTimeout
	var fire func()
	fire = func() {
		started := c.started.Load()
		if started && r.removeIfIdle(id, f) {
			r.count(&r.expired)
			c.file.Close()
			return
		}
		idleFor, ok := r.conns.IdleFor(id)
		if !ok {
			return
		}
		remain := idle
		if started {
			remain = max(idle-idleFor, r.wheel.Tick())
		}
		c.timer.Store(r.wheel.Schedule(remain, fire))
		r.count(&r.idleResched)
	}
	c.timer.Store(r.wheel.Schedule(idle, fire))
}

// removeIfIdle expires a silent session's conn-table entry. For a flow
// the removal and the demux-map removal are one critical section under
// fmu, which delivery also holds: a datagram racing the expiry either
// reaches the live flow first (its stamp then keeps the flow alive) or
// finds no flow and opens a fresh one. It is never queued into a flow
// that is about to close. A flow whose worker is still answering what it
// read is busy, not idle, however long the answer takes: expiring it
// would detach its leg under the answer.
func (r *Runtime[T]) removeIfIdle(id uint64, f *flow) bool {
	if f == nil {
		_, ok := r.conns.RemoveIfIdle(id, r.app.IdleTimeout)
		return ok
	}
	r.fmu.Lock()
	defer r.fmu.Unlock()
	f.mu.Lock()
	resting := f.resting()
	f.mu.Unlock()
	if !resting {
		return false
	}
	_, ok := r.conns.RemoveIfIdle(id, r.app.IdleTimeout)
	if ok {
		r.unmapLocked(f)
	}
	return ok
}

// Serve accepts connections until the listener closes, dispatching each
// to ServeConn on its own goroutine, and returns once every dispatched
// connection has completed. Failed or rejected connections are closed
// (the client's signal to retry elsewhere) and counted in the Snapshot.
// A closed listener ends the loop with a nil error; any other accept
// failure is returned.
func (r *Runtime[T]) Serve(l *netsim.Listener) error {
	var serveErr error
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			if !errors.Is(err, netsim.ErrListenerDown) {
				serveErr = err
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			r.ServeConn(conn)
		}()
	}
	wg.Wait()
	return serveErr
}

// Resize grows or shrinks the pool to n slots (see gatepool.Pool.Resize).
// With auto-slots enabled the next admission may re-size again; call
// SetAutoSlots(false) first to pin a manual size.
func (r *Runtime[T]) Resize(n int) error { return r.pool.Resize(n) }

// SetQueue adjusts the admission bound live (App.Queue semantics).
func (r *Runtime[T]) SetQueue(n int) {
	r.mu.Lock()
	r.queue = n
	r.mu.Unlock()
}

// SetAutoSlots toggles auto-slots mode live. Enabling it re-applies the
// GOMAXPROCS-derived target on the next admission.
func (r *Runtime[T]) SetAutoSlots(on bool) {
	r.mu.Lock()
	r.auto = on
	r.autoTarget = 0
	r.mu.Unlock()
}

// Drain moves the runtime to StateDraining: new admissions fail with the
// typed overload error, in-flight sessions run to completion (flows until
// they expire), and the call returns only when the pool is quiescent
// (every slot released). A concurrent Undrain cancels the drain; Drain on
// a closed runtime is a no-op.
func (r *Runtime[T]) Drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateClosed {
		return
	}
	if r.state != StateDraining {
		r.state = StateDraining
		r.drains++
	}
	for r.inflight > 0 && r.state == StateDraining {
		r.quiet.Wait()
	}
	// The pool transition happens under the runtime lock, in the same
	// critical section as the state check: a concurrent Undrain (which
	// needs the lock to flip the state) can interleave only before —
	// cancelling the drain — or after, never between, so the pool can
	// not be left drained behind a serving runtime. Safe to call here:
	// with no admissions and no in-flight connections every lease is
	// already released, so pool.Drain is an immediate barrier (late
	// Acquires fail with gatepool.ErrDraining until Undrain) rather than
	// a blocking wait.
	if r.state == StateDraining {
		r.pool.Drain()
	}
}

// Undrain re-admits connections after a Drain.
func (r *Runtime[T]) Undrain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateDraining {
		// Re-open the pool before the state flips: once admit can
		// observe StateServing, Acquire must no longer fail ErrDraining.
		r.pool.Undrain()
		r.state = StateServing
	}
	r.quiet.Broadcast() // cancel a Drain still waiting on in-flight conns
}

// Close drains the runtime and tears the pool down: gates, argument
// blocks, and tags are all released. The runtime is unusable afterwards.
// Close only commits the draining → closed transition while the drain
// still holds, so an Undrain racing it re-opens a fully working runtime
// (whose connections Close then drains again) rather than leaving a
// window where admitted connections fail untyped against a closing pool.
func (r *Runtime[T]) Close() error {
	for {
		r.Drain()
		r.mu.Lock()
		switch r.state {
		case StateClosed:
			r.mu.Unlock()
			return nil
		case StateDraining:
			r.state = StateClosed
			r.quiet.Broadcast()
			r.mu.Unlock()
			if r.wheel != nil {
				r.wheel.Stop()
			}
			return r.pool.Close()
		}
		// A concurrent Undrain re-opened the runtime between our Drain
		// and this lock: drain again until the transition sticks.
		r.mu.Unlock()
	}
}

// Schema returns the argument-block schema the runtime serves — the one
// source for the block size, the scrub footprint, and the demux words.
func (r *Runtime[T]) Schema() *gateabi.Schema { return r.app.Schema }

// PoolStats snapshots the pool scheduler's counters alone; Snapshot
// includes them plus the runtime's own.
func (r *Runtime[T]) PoolStats() gatepool.Stats { return r.pool.Stats() }

// SlotPin is a NUMA-style placement hint: the CPU a slot's gate sthreads
// should be pinned to. The simulated substrate cannot call
// sched_setaffinity, so the hint is advisory — slot index modulo host
// parallelism, the striping a native runtime would install — and is
// exported so schedulers above the runtime (and the multicore scaling
// experiment) can observe the intended placement.
type SlotPin struct {
	Slot int
	CPU  int
}

// Snapshot is the unified observability surface: lifecycle state,
// admission counters, queue configuration and depth, auto-slots
// progress, pin hints, and the embedded pool stats.
type Snapshot struct {
	App      string
	State    State
	Inflight int // admitted sessions not yet completed
	Waiting  int // admitted but not yet holding a ring entry (queued in the pool)
	Queue    int // configured admission bound (App.Queue semantics)

	AutoSlots   bool
	AutoTarget  int // last slot target auto mode applied (0 = none yet)
	AutoResizes uint64

	// The admission ledger. These are taken in one critical section with
	// Inflight, so Admitted == Served + Failed + Handed + Inflight holds
	// in every snapshot — the property the cluster director's two-choice
	// load reads and the servetest batteries assert on. Handed counts
	// sessions exported to a peer runtime via HandoffPrincipal.
	Admitted uint64
	Served   uint64
	Failed   uint64
	Handed   uint64
	Rejected uint64
	Drains   uint64

	// Idle expiry, on either transport. Expired counts sessions the
	// wheel ended for inactivity — stream connections and datagram flows
	// alike, each through the full EndConn/scrub/teardown path, and each
	// also counted under its ledger outcome. IdleResched counts re-arms
	// of checks that found their session active or still waiting for a
	// ring.
	Expired     uint64
	IdleResched uint64

	// The datagram demux: Packets is total datagrams delivered, Flows the
	// current live flow count.
	Packets uint64
	Flows   int

	// Conns is the conn-table occupancy census: live entries, shard
	// count, deepest shard, slot capacity, and bucket-array growths.
	// Entries must read zero at quiescence — a nonzero figure after the
	// runtime settles is a demux-record leak (the soak harness and the
	// servetest battery both assert on it).
	Conns gatepool.ConnTableStats

	Pool gatepool.Stats
	Pins []SlotPin
}

// Snapshot returns a point-in-time view of the runtime and its pool.
// The whole view — ledger, pool stats, conn-table census — is assembled
// under the runtime lock, so it is one consistent point in time: a
// reader can never observe a torn Admitted/Served pair or a pool census
// from a different instant than the ledger it sits next to. (Safe lock
// order: neither the pool nor the conn table ever calls back into the
// runtime, so taking their internal locks under r.mu cannot invert.)
func (r *Runtime[T]) Snapshot() Snapshot {
	procs := runtime.GOMAXPROCS(0)
	r.fmu.Lock()
	flows, packets := len(r.flows), r.packets
	r.fmu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.pool.Stats()
	cs := r.conns.Stats()
	// Waiting is sessions admitted but holding no ring entry yet: queued
	// in the pool for a free ring. A bound entry never waits behind
	// another body, so it counts as serviced.
	waiting := r.inflight
	for _, g := range ps.Gates {
		waiting -= g.Inflight
	}
	s := Snapshot{
		App:      r.app.Name,
		State:    r.state,
		Inflight: r.inflight,
		Waiting:  waiting,
		Queue:    r.queue,

		AutoSlots:   r.auto,
		AutoTarget:  r.autoTarget,
		AutoResizes: r.autoResizes,

		Admitted: r.admitted,
		Served:   r.served,
		Failed:   r.failed,
		Handed:   r.handed,
		Rejected: r.rejected,
		Drains:   r.drains,

		Expired:     r.expired,
		IdleResched: r.idleResched,
		Packets:     packets,
		Flows:       flows,

		Conns: cs,
		Pool:  ps,
	}
	if s.Waiting < 0 {
		s.Waiting = 0
	}
	for _, g := range ps.Gates {
		if !g.Retiring {
			s.Pins = append(s.Pins, SlotPin{Slot: g.Slot, CPU: g.Slot % procs})
		}
	}
	return s
}
