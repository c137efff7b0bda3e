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
// boundaries preserved), Write sends one datagram back to the peer and,
// like every delivered datagram, stamps the flow's conn-table entry.
// Closing it — expiry's lever — fails the worker's blocked Read with
// netsim.ErrClosed.
type flow struct {
	pc   *netsim.PacketConn
	peer string
	activity

	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
}

func (r *Runtime[T]) newFlow(pc *netsim.PacketConn, peer string) *flow {
	f := &flow{pc: pc, peer: peer, activity: activity{stamp: r.conns.Touch}}
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
		f.cond.Wait()
	}
	p := f.q[0]
	f.q = f.q[1:]
	return copy(b, p), nil
}

func (f *flow) Write(b []byte) (int, error) {
	f.touch()
	return f.pc.WriteTo(b, f.peer)
}

func (f *flow) Close() error {
	f.mu.Lock()
	f.closed = true
	f.q = nil
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// unmapLocked drops f from the demux map if it is still the live flow
// for its peer. Callers hold fmu.
func (r *Runtime[T]) unmapLocked(f *flow) {
	if r.flows[f.peer] == f {
		delete(r.flows, f.peer)
	}
}

// ServePackets runs the packet loop: read a datagram, demultiplex by
// source address, deliver to the flow (opening it on first contact). It
// returns when the socket closes; live flows then finish or expire under
// Drain/Close as usual. A runtime without IdleTimeout serves no flows.
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
		r.autoSync()
		r.deliver(pc, append([]byte(nil), buf[:n]...), from)
	}
}

// DeliverPacket injects one datagram into the flow demux exactly as if
// the packet loop had read it from pc: source address from, flow opened
// on first contact, admission control applied. It is the cluster
// director's forwarding entry — the director owns the front socket and
// relays each client datagram to the owning runtime's backend socket.
func (r *Runtime[T]) DeliverPacket(pc *netsim.PacketConn, payload []byte, from string) {
	r.autoSync()
	r.deliver(pc, append([]byte(nil), payload...), from)
}

// deliver routes one datagram. Existing flow: stamp and enqueue. New
// flow: admit (refusing with the app's Refuse datagram) and start its
// session.
func (r *Runtime[T]) deliver(pc *netsim.PacketConn, payload []byte, from string) {
	r.fmu.Lock()
	r.packets++
	if f, ok := r.flows[from]; ok {
		r.conns.Touch(f.id.Load())
		f.push(payload)
		r.fmu.Unlock()
		return
	}
	err := errNoExpiry
	if r.wheel != nil {
		err = r.admit()
	}
	if err != nil {
		r.fmu.Unlock()
		if r.app.Refuse != nil {
			if resp := r.app.Refuse(payload, err); resp != nil {
				pc.WriteTo(resp, from)
			}
		}
		return
	}
	f := r.newFlow(pc, from)
	f.push(payload)
	r.flows[from] = f
	r.fmu.Unlock()
	go r.session(from, f, f, nil)
}

// ResumeFlow re-admits a handed-off datagram flow: the record is
// validated as hostile input, the flow is registered under its peer
// address, and its session starts with c.Resumed set and the app payload
// imported — mid-protocol state (a half-reassembled query) survives the
// move. Replies go out through pc to peer, exactly like a first-contact
// flow's.
func (r *Runtime[T]) ResumeFlow(pc *netsim.PacketConn, peer string, rec *HandoffRecord) error {
	if r.wheel == nil {
		return errNoExpiry
	}
	if err := r.checkRecord(rec); err != nil {
		return err
	}
	r.fmu.Lock()
	if _, ok := r.flows[peer]; ok {
		r.fmu.Unlock()
		return fmt.Errorf("serve: %s: flow %q is already live here", r.app.Name, peer)
	}
	if err := r.admitResume(); err != nil {
		r.fmu.Unlock()
		return err
	}
	f := r.newFlow(pc, peer)
	r.flows[peer] = f
	r.fmu.Unlock()
	go r.session(peer, f, f, rec)
	return nil
}
