// Datagram serving. A stream runtime's unit of work arrives ready-made:
// accept() hands it one connection per principal. A datagram socket
// hands it single packets, so the runtime must build the connection
// abstraction itself: the packet loop (ServePackets) demultiplexes each
// datagram by its source address — the principal key — into a flow,
// creating the flow's conn-table entry on the first packet and retiring
// it when the timer wheel finds it idle. Expiry is not a fast path
// around teardown: it closes the flow's descriptor, which unwinds the
// worker through exactly the stream path — EndConn, conn-table delete,
// lease release (and so inter-principal scrubbing), leak accounting —
// so every invariant the conformance battery checks for TCP apps holds
// verbatim for datagram apps.
//
// A flow holds its slot lease for its whole lifetime, like a TCP
// connection: the §3.3 residue argument needs the slot's argument tag
// bound to one principal at a time, and per-packet lease churn would
// also scrub per packet. The wheel is what makes the model viable —
// flows that stop talking give their slots back after IdleTimeout
// without any per-flow goroutine or runtime timer.

package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/timerwheel"
	"wedge/internal/vm"
)

// DefaultIdleTimeout is the flow-expiry window used when a PacketApp
// does not set one. Datagram flows must always expire — there is no FIN.
const DefaultIdleTimeout = 30 * time.Second

// flowQueueCap bounds a single flow's unread-datagram queue; packets
// beyond it are dropped, UDP-style, rather than buffered without bound
// by a worker that has stopped reading.
const flowQueueCap = 64

// maxDatagram is the packet-loop read buffer: larger datagrams are
// truncated by the transport anyway.
const maxDatagram = 64 * 1024

// PacketApp declares a pooled datagram application. The shared fields
// mean exactly what they mean on App; the differences are the packet
// loop's: OnPacket is the worker gate invoked once per flow (it reads
// whole datagrams from its descriptor — one Read, one datagram — and
// writes whole response datagrams back), IdleTimeout bounds a flow's
// silence before the wheel expires it, and Refuse maps an admission
// rejection to a response datagram so clients see overload instead of a
// timeout.
type PacketApp[T any] struct {
	Name     string
	Slots    int
	MaxSlots int

	Schema *gateabi.Schema

	Gates    []gatepool.GateDef
	OnPacket string // the Gates entry invoked once per flow

	Queue     int
	AutoSlots bool

	// IdleTimeout is the flow-expiry window (<= 0: DefaultIdleTimeout).
	IdleTimeout time.Duration

	InitConn func(c *Conn[T]) error
	EndConn  func(c *Conn[T])
	Finish   func(c *Conn[T], ret vm.Addr, err error) error

	// Export and Import are the session-handoff hooks, exactly as on App:
	// Export serializes the flow's app state (never secrets), Import
	// restores it at the new home after validating it as hostile input.
	Export func(c *Conn[T]) []byte
	Import func(c *Conn[T], rec *HandoffRecord) error

	// Refuse builds the datagram sent back when a first packet is
	// rejected by admission control (queue overflow, draining, closed).
	// nil, or a nil return, drops the packet silently.
	Refuse func(payload []byte, err error) []byte
}

// flowFile is the per-flow descriptor handed to the worker: Read pops
// one queued datagram (blocking; message boundaries preserved), Write
// sends one datagram back to the flow's peer. Closing it — expiry's
// lever — fails the worker's blocked Read with netsim.ErrClosed.
type flowFile struct {
	pc   *netsim.PacketConn
	peer string

	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
	touch  func() // refreshes the flow's idle stamp; set by serveFlow
}

func newFlowFile(pc *netsim.PacketConn, peer string) *flowFile {
	f := &flowFile{pc: pc, peer: peer}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *flowFile) push(p []byte) {
	f.mu.Lock()
	if !f.closed && len(f.q) < flowQueueCap {
		f.q = append(f.q, p)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

func (f *flowFile) Read(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.q) == 0 {
		if f.closed {
			return 0, netsim.ErrClosed
		}
		f.cond.Wait()
	}
	p := f.q[0]
	f.q = f.q[1:]
	return copy(b, p), nil
}

// Write sends one response datagram. A response is activity: like the
// stream runtime's touchConn, it refreshes the flow's idle stamp, so a
// flow whose worker just answered is never on the brink of expiry.
func (f *flowFile) Write(b []byte) (int, error) {
	f.mu.Lock()
	touch := f.touch
	f.mu.Unlock()
	if touch != nil {
		touch()
	}
	return f.pc.WriteTo(b, f.peer)
}

func (f *flowFile) Close() error {
	f.mu.Lock()
	f.closed = true
	f.q = nil
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// flow is one live principal on the packet loop.
type flow[T any] struct {
	peer  string
	file  *flowFile
	id    uint64 // conn-table id; set by serveFlow under fmu
	timer *timerwheel.Timer
}

// PacketRuntime serves one PacketApp. It embeds the stream Runtime —
// pool lifecycle, admission control, Drain/Undrain/Close, Resize,
// SetQueue, auto-slots, and Lookup's slot pin are all shared — and adds
// the packet loop, the flow table, and wheel-driven expiry.
type PacketRuntime[T any] struct {
	*Runtime[T]

	wheel  *timerwheel.Wheel
	idle   time.Duration
	refuse func(payload []byte, err error) []byte

	fmu     sync.Mutex
	flows   map[string]*flow[T]
	packets uint64
	expired uint64
	resched uint64
}

// NewPacket builds a datagram runtime from the descriptor. The pool, the
// schema checks, and the slot policy are exactly New's.
func NewPacket[T any](root *sthread.Sthread, app PacketApp[T]) (*PacketRuntime[T], error) {
	r, err := New(root, App[T]{
		Name:      app.Name,
		Slots:     app.Slots,
		MaxSlots:  app.MaxSlots,
		Schema:    app.Schema,
		Gates:     app.Gates,
		Worker:    app.OnPacket,
		Queue:     app.Queue,
		AutoSlots: app.AutoSlots,
		InitConn:  app.InitConn,
		EndConn:   app.EndConn,
		Finish:    app.Finish,
		Export:    app.Export,
		Import:    app.Import,
	})
	if err != nil {
		return nil, err
	}
	idle := app.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	p := &PacketRuntime[T]{
		Runtime: r,
		idle:    idle,
		refuse:  app.Refuse,
		flows:   make(map[string]*flow[T]),
	}
	// Datagram flows always expire (there is no FIN), so the conn table
	// always tracks touch stamps — the stream runtime's lazy opt-in is
	// mandatory here.
	p.conns.TrackIdle()
	p.wheel = timerwheel.New(idleTick(idle), 0)
	p.wheel.Start()
	return p, nil
}

// IdleTimeout returns the effective flow-expiry window.
func (p *PacketRuntime[T]) IdleTimeout() time.Duration { return p.idle }

// ServePackets runs the packet loop: read a datagram, demultiplex by
// source address, deliver to the flow (creating it on first contact).
// It returns when the socket closes; in-flight flows then finish or
// expire under Drain/Close as usual.
func (p *PacketRuntime[T]) ServePackets(pc *netsim.PacketConn) error {
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, netsim.ErrClosed) {
				return nil
			}
			return err
		}
		p.autoSync()
		p.deliver(pc, append([]byte(nil), buf[:n]...), from)
	}
}

// deliver routes one datagram. Existing flow: enqueue and refresh the
// idle stamp. New flow: admit (refusing overload with the app's Refuse
// datagram) and start its worker.
func (p *PacketRuntime[T]) deliver(pc *netsim.PacketConn, payload []byte, from string) {
	p.fmu.Lock()
	p.packets++
	if f, ok := p.flows[from]; ok {
		f.file.push(payload)
		// A failed touch means expiry just took the entry: the flow is
		// dead and this packet is lost, like any datagram in flight at
		// the wrong moment. The next packet re-registers a fresh flow.
		p.conns.Touch(f.id)
		p.fmu.Unlock()
		return
	}
	if err := p.admit(); err != nil {
		p.fmu.Unlock()
		if p.refuse != nil {
			if resp := p.refuse(payload, err); resp != nil {
				pc.WriteTo(resp, from)
			}
		}
		return
	}
	f := &flow[T]{peer: from, file: newFlowFile(pc, from)}
	f.file.push(payload)
	p.flows[from] = f
	p.fmu.Unlock()
	go p.serveFlow(f, nil)
}

// DeliverPacket injects one datagram into the flow demux exactly as if
// the packet loop had read it from pc: source address from, flow created
// on first contact, admission control applied. It is the cluster
// director's forwarding entry — the director owns the front socket and
// relays each client datagram to the owning runtime's backend socket.
func (p *PacketRuntime[T]) DeliverPacket(pc *netsim.PacketConn, payload []byte, from string) {
	p.autoSync()
	p.deliver(pc, append([]byte(nil), payload...), from)
}

// ResumeFlow re-admits a handed-off datagram flow: the record is
// validated as hostile input, the flow is registered under its peer
// address, and its worker starts with c.Resumed set and the app payload
// imported — mid-protocol state (a half-reassembled query) survives the
// move. Replies go out through pc to peer, exactly like a first-contact
// flow's.
func (p *PacketRuntime[T]) ResumeFlow(pc *netsim.PacketConn, peer string, rec *HandoffRecord) error {
	if err := p.checkRecord(rec); err != nil {
		return err
	}
	p.fmu.Lock()
	if _, ok := p.flows[peer]; ok {
		p.fmu.Unlock()
		return fmt.Errorf("serve: %s: flow %q is already live here", p.app.Name, peer)
	}
	if err := p.admitResume(); err != nil {
		p.fmu.Unlock()
		return err
	}
	f := &flow[T]{peer: peer, file: newFlowFile(pc, peer)}
	p.flows[peer] = f
	p.fmu.Unlock()
	go p.serveFlow(f, rec)
	return nil
}

// serveFlow is the datagram counterpart of ServeConnAs: one admission,
// one descriptor, one lease, one worker invocation — per flow, not per
// packet. It unwinds in the same order the stream path does (conn-table
// delete, EndConn, lease release, descriptor close), whether the worker
// returned on its own or expiry closed the flow under it.
func (p *PacketRuntime[T]) serveFlow(f *flow[T], rec *HandoffRecord) {
	outcome := &p.failed
	defer func() { p.departAs(outcome) }()
	defer func() {
		p.fmu.Lock()
		if p.flows[f.peer] == f {
			delete(p.flows, f.peer)
		}
		t := f.timer
		p.fmu.Unlock()
		if t != nil {
			t.Cancel(p.wheel)
		}
		f.file.Close()
	}()

	root := p.root
	fd := root.Task.InstallFD(f.file, kernel.FDRW)
	defer root.Task.CloseFD(fd)

	lease, err := p.pool.Acquire(f.peer)
	if err != nil {
		return
	}
	defer lease.Release()

	c := &Conn[T]{Principal: f.peer, FD: fd, Lease: lease,
		Resumed: rec != nil, interrupt: func() { f.file.Close() }}
	if p.app.InitConn != nil {
		if err := p.app.InitConn(c); err != nil {
			return
		}
	}
	if p.app.EndConn != nil {
		defer p.app.EndConn(c)
	}
	if rec != nil && p.app.Import != nil {
		if err := p.app.Import(c, rec); err != nil {
			return
		}
	}
	id := p.conns.Put(c)
	defer p.conns.Delete(id)

	f.file.mu.Lock()
	f.file.touch = func() { p.conns.Touch(id) }
	f.file.mu.Unlock()

	p.fmu.Lock()
	f.id = id
	f.timer = p.wheel.Schedule(p.idle, p.expiry(f, lease))
	p.fmu.Unlock()

	ret, err := lease.CallBatch(root, id, fd, kernel.FDRW)
	// Completion/handoff rendezvous, mirroring serveConn: a flow marked
	// for handoff while its worker ran unwinds as handed, with the export
	// finished here.
	c.hmu.Lock()
	c.completing = true
	h := c.hand
	c.hmu.Unlock()
	if h != nil {
		p.finishExport(c, h)
		outcome = &p.handed
		return
	}
	if p.app.Finish != nil {
		err = p.app.Finish(c, ret, err)
	} else if err != nil {
		err = fmt.Errorf("%s: %s: %w", p.app.Name, p.app.Worker, err)
	}
	if err != nil {
		return
	}
	outcome = &p.served
}

// expiry builds the wheel callback for one flow. RemoveIfIdle makes the
// idle check and the conn-table removal one atomic step against Touch;
// on expiry the only action is closing the flow's file — the worker's
// unwind does every piece of real teardown. A flow that was active
// re-arms for its remaining window.
func (p *PacketRuntime[T]) expiry(f *flow[T], lease *gatepool.Lease) func() {
	var fire func()
	fire = func() {
		// A flow whose lease still waits in the pool queue for a free
		// ring has not been served a single byte: it is waiting, not
		// idle. Reaping it would drop its queued datagrams, so hold the
		// full window open until service begins.
		if !lease.Dispatched() {
			p.fmu.Lock()
			defer p.fmu.Unlock()
			if p.flows[f.peer] != f {
				return
			}
			p.resched++
			f.timer = p.wheel.Schedule(p.idle, fire)
			return
		}
		if _, ok := p.conns.RemoveIfIdle(f.id, p.idle); ok {
			p.fmu.Lock()
			p.expired++
			p.fmu.Unlock()
			f.file.Close()
			return
		}
		idleFor, ok := p.conns.IdleFor(f.id)
		p.fmu.Lock()
		defer p.fmu.Unlock()
		if p.flows[f.peer] != f {
			return // flow already ended on its own
		}
		if !ok {
			return // worker is mid-unwind; its teardown owns the flow
		}
		remain := p.idle - idleFor
		if remain < p.wheel.Tick() {
			remain = p.wheel.Tick()
		}
		p.resched++
		f.timer = p.wheel.Schedule(remain, fire)
	}
	return fire
}

// Close drains the runtime (flows finish or expire — the wheel keeps
// ticking through the drain so abandoned flows can unwind), closes the
// pool, then stops the wheel.
func (p *PacketRuntime[T]) Close() error {
	err := p.Runtime.Close()
	p.wheel.Stop()
	return err
}

// Snapshot extends the stream snapshot with the packet-loop counters.
func (p *PacketRuntime[T]) Snapshot() Snapshot {
	s := p.Runtime.Snapshot()
	p.fmu.Lock()
	s.Packets = p.packets
	s.Flows = len(p.flows)
	s.Expired = p.expired
	s.IdleResched += p.resched
	p.fmu.Unlock()
	return s
}
