// The datagram demux. A stream's unit of work arrives ready-made:
// accept() hands the runtime one connection per principal. A datagram
// socket hands it single packets, so the demux builds the session itself:
// each datagram is keyed by its source address — the principal key — into
// a flow, and the flow's first packet opens its session. From there a
// flow is a session like any other: it holds its slot lease for its whole
// lifetime (the §3.3 residue argument needs the slot's argument tag bound
// to one principal at a time, and per-packet lease churn would also scrub
// per packet), and it ends by idle expiry — there is no FIN — through the
// same EndConn/scrub/teardown path as a stream.
//
// A flow answers its peer through a packet leg (netsim.PacketLeg) of the
// socket the datagrams arrived on, and holds nothing else that can send.
// ServePackets splices that leg from its own socket; the cluster director
// splices it from the front socket and serves the flow through the same
// two calls, OpenFlow and DeliverPacket.

package serve

import (
	"errors"
	"fmt"
	"sync"

	"wedge/internal/netsim"
)

// flowQueueCap bounds a single flow's unread-datagram queue; packets
// beyond it are dropped, UDP-style, rather than buffered without bound
// by a worker that has stopped reading.
const flowQueueCap = 64

// maxDatagram is the packet-loop read buffer: larger datagrams are
// truncated by the transport anyway.
const maxDatagram = 64 * 1024

// errNoExpiry refuses datagram flows on a runtime without IdleTimeout: a
// flow that could never expire would pin its slot forever.
var errNoExpiry = errors.New("serve: datagram flows need App.IdleTimeout")

// flow is one live principal in the datagram demux and the descriptor
// its worker reads: Read pops one queued datagram (blocking; message
// boundaries preserved), Write sends one datagram back to the peer
// through the flow's leg and, like every delivered datagram, stamps the
// flow's conn-table entry. Closing it — expiry's and handoff's lever —
// detaches the leg and fails the worker's blocked Read with
// netsim.ErrClosed.
type flow struct {
	leg *netsim.PacketLeg
	activity

	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	parked bool // the worker waits in Read on an empty queue
	closed bool
}

func (r *Runtime[T]) newFlow(leg *netsim.PacketLeg, queued [][]byte) *flow {
	f := &flow{leg: leg, q: queued, activity: activity{stamp: r.conns.Touch}}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *flow) push(p []byte) {
	f.mu.Lock()
	if !f.closed && len(f.q) < flowQueueCap {
		f.q = append(f.q, p)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

func (f *flow) Read(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.q) == 0 {
		if f.closed {
			return 0, netsim.ErrClosed
		}
		f.parked = true
		f.cond.Broadcast() // a hold waiting for this park
		f.cond.Wait()
		f.parked = false
	}
	p := f.q[0]
	f.q = f.q[1:]
	return copy(b, p), nil
}

func (f *flow) Write(b []byte) (int, error) {
	f.touch()
	return f.leg.Write(b)
}

func (f *flow) Close() error {
	f.mu.Lock()
	f.closed = true
	f.q = nil
	f.cond.Broadcast()
	f.mu.Unlock()
	return f.leg.Close()
}

// resting reports whether the worker is parked in Read on an empty
// queue: it has registered its session and, under request/response
// traffic, answered everything it read. Callers hold f.mu.
func (f *flow) resting() bool { return f.parked && len(f.q) == 0 }

// hold is the flow's side of a handoff: it waits until the worker is
// resting. It reports false if the flow closed first.
func (f *flow) hold() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.closed {
		if f.resting() {
			return true
		}
		f.cond.Wait()
	}
	return false
}

// unmapLocked drops f from the demux map if it is still the live flow
// for its peer. Callers hold fmu.
func (r *Runtime[T]) unmapLocked(f *flow) {
	if peer := f.leg.Peer(); r.flows[peer] == f {
		delete(r.flows, peer)
	}
}

// ServePackets runs the packet loop: read a datagram, deliver it to its
// source address's flow, or open one for it. It returns when the socket
// closes; live flows then finish or expire under Drain/Close as usual. A
// runtime without IdleTimeout serves no flows.
func (r *Runtime[T]) ServePackets(pc *netsim.PacketConn) error {
	if r.wheel == nil {
		return errNoExpiry
	}
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, netsim.ErrClosed) {
				return nil
			}
			return err
		}
		payload := append([]byte(nil), buf[:n]...)
		if r.DeliverPacket(payload, from) {
			continue
		}
		if run, err := r.OpenFlow(pc.Splice(from), [][]byte{payload}, nil); err == nil {
			go run()
		}
	}
}

// DeliverPacket queues payload, a datagram from the address from, on
// that peer's live flow and stamps the flow, or reports false when the
// peer has none. The flow keeps payload; the caller must not reuse it. A
// datagram racing the flow's expiry either reaches the flow first (its
// stamp then keeps the flow alive) or finds none, never a flow that is
// about to close.
func (r *Runtime[T]) DeliverPacket(payload []byte, from string) bool {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	f, ok := r.flows[from]
	if ok {
		r.packets++
		r.conns.Touch(f.id.Load())
		f.push(payload)
	}
	return ok
}

// OpenFlow admits a flow from leg's peer and registers it in the demux
// before it returns, so the peer's next DeliverPacket finds it. queued
// are the flow's first datagrams. rec, when non-nil, resumes a handed-off
// flow: the record is validated as hostile input, the flow is admitted
// past the queue bound (admitResume), and its session starts with
// c.Resumed set and the app payload imported — mid-protocol state (a
// half-reassembled query) survives the move.
//
// run serves the session on the caller's goroutine, and must be called
// exactly once. It returns when the wheel expires the flow, or with
// ErrHandedOff when HandoffPrincipal exports it. A refused flow is not
// registered: OpenFlow returns the refusal, after answering a fresh flow
// with the app's Refuse datagram. Either way the flow owns leg and
// detaches it when it ends.
func (r *Runtime[T]) OpenFlow(leg *netsim.PacketLeg, queued [][]byte, rec *HandoffRecord) (run func() error, err error) {
	peer := leg.Peer()
	if r.wheel == nil {
		err = errNoExpiry
	} else if rec != nil {
		err = r.checkRecord(rec)
	}
	if err == nil {
		r.autoSync()
	}
	r.fmu.Lock()
	r.packets += uint64(len(queued))
	switch {
	case err != nil:
	case r.flows[peer] != nil:
		err = fmt.Errorf("serve: %s: flow %q is already live here", r.app.Name, peer)
	case rec != nil:
		err = r.admitResume()
	default:
		err = r.admit()
	}
	if err != nil {
		r.fmu.Unlock()
		if rec == nil && len(queued) > 0 && r.app.Refuse != nil {
			if resp := r.app.Refuse(queued[0], err); resp != nil {
				leg.Write(resp)
			}
		}
		leg.Close()
		return nil, err
	}
	f := r.newFlow(leg, queued)
	r.flows[peer] = f
	r.fmu.Unlock()
	return func() error { return r.session(peer, f, f, rec) }, nil
}
