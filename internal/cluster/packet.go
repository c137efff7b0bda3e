// The packet half of the director: datagram flows sharded by client
// address and served the way stream sessions are. The owning member
// answers a flow through a packet leg (netsim.PacketLeg) of the front
// socket, which sends only to the flow's client and cannot read, and the
// member's serving call for the flow runs on a director goroutine. The
// director forwards each client datagram into the member's flow demux
// (DeliverPacket) and keeps, per flow, only a routing record: the member,
// the pause queue and the handoff rendezvous. The record goes when the
// serving call returns, so a director flow lives exactly as long as the
// member's flow, on the member's idle clock.
//
// Handoff is the stream discipline with the pause in the director: hold
// back the client's datagrams (queueing, not dropping), export the flow
// through HandoffPrincipal — which holds it until its worker is parked
// with everything it read answered, and detaches its leg — then open it
// at the new owner on a new leg with the held-back datagrams queued, and
// resume forwarding. The record (app-level reassembly state, e.g. dnsd's
// in-progress FRAG) moves in the export.

package cluster

import (
	"errors"
	"sync"

	"wedge/internal/netsim"
	"wedge/internal/serve"
)

// pendingCap bounds the datagrams queued per flow during a handoff
// pause; beyond it the director sheds like any congested datagram hop.
const pendingCap = 64

// maxDatagram is the front loop's read buffer: larger datagrams are
// truncated by the transport anyway.
const maxDatagram = 64 * 1024

// flow is the director's record of one client address: the member
// serving it and the front socket its legs are spliced from. A handoff
// pauses delivery, queueing the client's datagrams in pending, then
// installs the next member and its serving call and closes moved. moved
// is set before the export, since the flow's serving call can return
// before HandoffPrincipal does.
type flow struct {
	peer  string
	front *netsim.PacketConn

	mu      sync.Mutex
	member  *member // nil once the member's flow has ended
	paused  bool
	pending [][]byte
	moved   chan struct{} // made by the latest handoff, closed when it is done
	next    func() error  // the serving call at the new home
}

func (f *flow) ownedBy(m *member) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.member == m
}

// deliver forwards payload into the member's flow, or queues it while a
// handoff has the flow paused. It reports false once the member's flow
// has ended.
func (f *flow) deliver(payload []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.paused {
		if len(f.pending) < pendingCap {
			f.pending = append(f.pending, payload)
		}
		return true
	}
	return f.member != nil && f.member.packet.DeliverPacket(payload, f.peer)
}

// ServePackets reads the front socket until it closes, forwarding each
// datagram to its flow's owning member, and returns once every flow it
// opened has ended on its member's wheel. The front socket is the
// cluster's single client-facing address for packet service.
func (d *Director) ServePackets(front *netsim.PacketConn) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := front.ReadFrom(buf)
		if err != nil {
			return nil
		}
		payload := append([]byte(nil), buf[:n]...)
		d.mu.Lock()
		f := d.flows[from]
		d.mu.Unlock()
		// A flow whose member flow has ended is on its way out of the
		// map: the datagram opens the peer's next flow.
		if f != nil && f.deliver(payload) {
			continue
		}
		if f, run := d.openFlow(front, payload, from); run != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.serveFlow(f, run)
			}()
		}
	}
}

// openFlow routes a new client address and opens its flow at the owning
// member, returning the flow's serving call, or nil when it was refused.
// The record is in the map, locked, before the member sees the flow, so
// a Remove that finds it waits for the open to finish; as for a session,
// a Remove that began after the pick makes the route retry.
func (d *Director) openFlow(front *netsim.PacketConn, payload []byte, from string) (*flow, func() error) {
	f := &flow{peer: from, front: front}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.member == nil {
		m := d.pick(from)
		if m == nil || m.packet == nil {
			d.count(&d.refused)
			return nil, nil
		}
		d.mu.Lock()
		if !m.draining {
			f.member = m
			d.flows[from] = f
			d.admitted++
		}
		d.mu.Unlock()
	}
	run, err := f.member.packet.OpenFlow(front.Splice(from), [][]byte{payload}, nil)
	if err != nil {
		// Refused at the member, which answered the client itself.
		f.member = nil
		d.dropFlow(f)
	}
	return f, run
}

// serveFlow runs a flow's serving call at its member on this goroutine,
// and, when a handoff moves the flow, the next one at its new home. The
// record goes when the last call returns.
func (d *Director) serveFlow(f *flow, run func() error) {
	defer d.dropFlow(f)
	for {
		if err := run(); !errors.Is(err, serve.ErrHandedOff) {
			return
		}
		// The handoff that exported the call installs next, then closes
		// moved. By the time this goroutine looks, that handoff may be
		// done and a following Remove may already have replaced moved for
		// the next move, which waits on the call installed here: take
		// next when it is there, and wait on moved only while it is not.
		f.mu.Lock()
		run, f.next = f.next, nil
		moved := f.moved
		f.mu.Unlock()
		if run == nil && moved != nil {
			<-moved
			f.mu.Lock()
			run, f.next = f.next, nil
			f.mu.Unlock()
		}
		if run == nil {
			return // no home to move to, or exported by someone other than the director
		}
	}
}

func (d *Director) dropFlow(f *flow) {
	d.mu.Lock()
	if d.flows[f.peer] == f {
		delete(d.flows, f.peer)
	}
	d.mu.Unlock()
}

// handoffFlow moves one flow off a draining member: hold back the
// client's datagrams, export the flow (HandoffPrincipal waits until its
// worker is at rest), and open it at the new owner on a new leg with the
// held-back datagrams queued before forwarding resumes.
func (d *Director) handoffFlow(f *flow, from *member) {
	f.mu.Lock()
	if f.member != from {
		f.mu.Unlock()
		return
	}
	f.paused = true
	moved := make(chan struct{})
	f.moved = moved
	f.mu.Unlock()

	rec, err := from.packet.HandoffPrincipal(f.peer)

	f.mu.Lock()
	defer f.mu.Unlock()
	defer close(moved)
	pending := f.pending
	f.paused, f.pending, f.member = false, nil, nil
	if err != nil {
		// A held flow that cannot be exported has ended. Datagrams held
		// back for it are lost like any datagram, and the client retries.
		return
	}
	if to := d.pick(f.peer); to != nil && to.packet != nil {
		if run, err := to.packet.OpenFlow(f.front.Splice(f.peer), pending, rec); err == nil {
			f.member, f.next = to, run
		}
	}
	if f.next == nil {
		d.count(&d.handoffFailed)
	} else {
		d.count(&d.handoffs)
	}
}
