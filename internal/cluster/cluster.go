// Package cluster is the Wedge fleet layer: a front-end director that
// shards principals across N serve runtimes and moves live sessions
// between them. One runtime is one process-worth of compartments; the
// director lifts the gatepool's principal-affinity idea one level up —
// a principal consistently lands on one member runtime — and adds the
// operation a fleet needs that a single runtime cannot express: taking
// a member out of rotation with zero client-visible downtime.
//
// The pieces:
//
//   - A generation-numbered routing ring (ring.go): virtual-node
//     consistent hashing, two-choice by runtime load from Snapshot,
//     rebuilt immutably at g+1 on every membership change.
//   - Legs, one design for both transports: the director relays no
//     bytes. The owning member serves a leg of the client's own
//     connection (netsim.Conn.Splice), or, for a datagram flow, a leg of
//     the front socket that sends only to the flow's client
//     (netsim.PacketConn.Splice), with its serving call on a director
//     goroutine. The member holds only the leg, and the director can
//     revoke it at any time. A director session or flow record lives
//     exactly as long as the member's serving call; a flow's ends on the
//     member's idle wheel, the only flow clock (packet.go).
//   - Live handoff (the rolling drain): Hold the session or flow until
//     its worker is parked on its read with every request answered — a
//     stream leg stops consuming at a request boundary (Conn.Hold); a
//     flow's datagrams wait in the director's pause queue while
//     serve.HandoffPrincipal holds it — then export it through
//     HandoffPrincipal, which detaches the leg, and resume at the new
//     owner on a new leg. What the client sends meanwhile waits in its
//     pipe or the pause queue. The client sees at most a pause.
//
// Trust: the director is control plane, but the records it moves are
// payload. Every importing runtime re-validates a HandoffRecord as
// hostile input (schema hash, field bounds, app payload), and the
// director itself refuses to mix members whose schema hashes disagree —
// an upgraded build joins an old cluster as a schema mismatch error, not
// as silent block corruption. A stream leg carries the member's own
// labels (remote "cluster:<principal>"), so a member never learns the
// client's front address; a packet leg reaches only its flow's client.
// A detached leg can neither read nor write.
//
// Protocol contract: the quiescence gate assumes request/response
// traffic — at most one request in flight per session, one response per
// request. Both wedge apps wired through the director (pop3 streams,
// dnsd datagrams, which acks every FRAG half) satisfy it. A pipelining
// client is safe only for bytes still in its pipe: bytes a worker read
// past the last request it answered do not survive a handoff.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"wedge/internal/netsim"
	"wedge/internal/serve"
)

// ErrNoMembers is returned or counted when a routing decision finds no
// live member to own a principal.
var ErrNoMembers = errors.New("cluster: no live members")

// StreamBackend is the slice of a serve.Runtime the director drives for
// stream sessions. *serve.Runtime[T] satisfies it, as does any app that
// embeds one (pop3.PooledServer).
type StreamBackend interface {
	ServeConnAs(conn *netsim.Conn, principal string) error
	ResumeConnAs(conn *netsim.Conn, principal string, rec *serve.HandoffRecord) error
	HandoffPrincipal(principal string) (*serve.HandoffRecord, error)
	SchemaHash() uint64
	Snapshot() serve.Snapshot
	Drain()
	Undrain()
}

// PacketBackend is the datagram counterpart: the slice of a
// serve.Runtime the director drives for flows. OpenFlow opens a flow on
// a packet leg of the front socket, fresh or resumed from a handoff
// record, and DeliverPacket forwards the flow's later datagrams.
// dnsd.Resolver satisfies it via its embedded runtime.
type PacketBackend interface {
	OpenFlow(leg *netsim.PacketLeg, queued [][]byte, rec *serve.HandoffRecord) (func() error, error)
	DeliverPacket(payload []byte, from string) bool
	HandoffPrincipal(principal string) (*serve.HandoffRecord, error)
	SchemaHash() uint64
	Snapshot() serve.Snapshot
	Drain()
	Undrain()
}

// Member declares one runtime joining the cluster. A member may serve
// streams, packets, or both, but every member must serve the same modes
// as the first one added. A member needs no network of its own: it
// serves each stream session and packet flow on a leg of the director's
// front connection or socket.
type Member struct {
	Name   string
	Stream StreamBackend
	Packet PacketBackend
}

// member is the director's record of one runtime.
type member struct {
	name     string
	stream   StreamBackend
	packet   PacketBackend
	draining bool
}

// Stats is the director's own ledger. Per-runtime admission ledgers
// (Admitted == Served + Failed + Handed) live in each member's
// serve.Snapshot; these counters cover what only the director sees.
type Stats struct {
	Gen           uint64 // current routing-ring generation
	Members       int    // live (non-draining) members
	Sessions      int    // live stream sessions
	Flows         int    // live packet flows
	Admitted      uint64 // stream sessions + packet flows accepted
	Handoffs      uint64 // sessions/flows moved live to a new member
	HandoffFailed uint64 // handoffs that found no importable home
	Refused       uint64 // clients turned away (no member, duplicate principal)
}

// Director owns the routing ring and the session state. All methods are
// safe for concurrent use; Remove (the rolling drain) serializes against
// itself so a handoff target can never itself be mid-drain.
type Director struct {
	drainMu sync.Mutex // serializes rolling drains

	mu       sync.Mutex
	members  map[string]*member
	ring     *ring
	gen      uint64
	sessions map[string]*session
	flows    map[string]*flow

	hasStream, hasPacket bool
	streamHash           uint64
	packetHash           uint64

	admitted      uint64
	handoffs      uint64
	handoffFailed uint64
	refused       uint64
}

// New returns an empty director.
func New() *Director {
	return &Director{
		members:  make(map[string]*member),
		sessions: make(map[string]*session),
		flows:    make(map[string]*flow),
	}
}

// Add joins a runtime to the cluster at generation g+1. The first
// member fixes the cluster's shape (which modes it serves) and its
// schema hashes; a later member whose hash disagrees is refused with a
// typed *serve.SchemaMismatchError — two builds that would disagree
// about block bytes must never exchange sessions. Re-adding a
// previously drained member re-opens it (Undrain).
func (d *Director) Add(m Member) error {
	if m.Name == "" {
		return errors.New("cluster: member needs a name")
	}
	if m.Stream == nil && m.Packet == nil {
		return fmt.Errorf("cluster: member %q has no backend", m.Name)
	}
	// Interface calls happen outside d.mu.
	var sh, ph uint64
	if m.Stream != nil {
		sh = m.Stream.SchemaHash()
		m.Stream.Undrain()
	}
	if m.Packet != nil {
		ph = m.Packet.SchemaHash()
		m.Packet.Undrain()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.members[m.Name]; ok {
		return fmt.Errorf("cluster: member %q already present", m.Name)
	}
	if len(d.members) == 0 {
		d.hasStream, d.hasPacket = m.Stream != nil, m.Packet != nil
		d.streamHash, d.packetHash = sh, ph
	} else {
		if d.hasStream != (m.Stream != nil) || d.hasPacket != (m.Packet != nil) {
			return fmt.Errorf("cluster: member %q does not serve the cluster's modes", m.Name)
		}
		if d.hasStream && sh != d.streamHash {
			return &serve.SchemaMismatchError{App: m.Name, From: m.Name,
				Want: d.streamHash, Got: sh}
		}
		if d.hasPacket && ph != d.packetHash {
			return &serve.SchemaMismatchError{App: m.Name, From: m.Name,
				Want: d.packetHash, Got: ph}
		}
	}
	d.members[m.Name] = &member{name: m.Name, stream: m.Stream, packet: m.Packet}
	d.rebuildLocked()
	return nil
}

// rebuildLocked publishes generation g+1 over the live members. Caller
// holds d.mu.
func (d *Director) rebuildLocked() {
	d.gen++
	var live []*member
	for _, m := range d.members {
		if !m.draining {
			live = append(live, m)
		}
	}
	d.ring = buildRing(d.gen, live)
}

// Generation returns the current routing-ring generation.
func (d *Director) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// Remove takes the named member out of rotation with a rolling drain:
// generation g+1 excludes it immediately (no new admissions route
// there), every in-flight session it owns is handed to its new owner
// live, and only then is the runtime drained to quiescence and dropped.
// Rolling drains serialize against each other, so a handoff's target is
// never itself draining. The member's runtime is left drained but
// intact — Add re-opens it.
func (d *Director) Remove(name string) error {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()

	d.mu.Lock()
	m, ok := d.members[name]
	if !ok || m.draining {
		d.mu.Unlock()
		return fmt.Errorf("cluster: no live member %q", name)
	}
	m.draining = true
	d.rebuildLocked()
	var owned []*session
	for _, s := range d.sessions {
		if s.ownedBy(m) {
			owned = append(owned, s)
		}
	}
	// A flow's owner is read under the flow's own lock, which an open in
	// progress holds while it takes d.mu: collect first, check after.
	flows := make([]*flow, 0, len(d.flows))
	for _, f := range d.flows {
		flows = append(flows, f)
	}
	d.mu.Unlock()

	var wg sync.WaitGroup
	for _, s := range owned {
		wg.Add(1)
		go func(s *session) { defer wg.Done(); d.handoffSession(s, m) }(s)
	}
	for _, f := range flows {
		if f.ownedBy(m) {
			wg.Add(1)
			go func(f *flow) { defer wg.Done(); d.handoffFlow(f, m) }(f)
		}
	}
	wg.Wait()

	// Every owned session completed or moved; Drain is now a barrier, not
	// a wait — and it pins the runtime closed against stragglers.
	if m.stream != nil {
		m.stream.Drain()
	}
	if m.packet != nil {
		m.packet.Drain()
	}
	d.mu.Lock()
	delete(d.members, name)
	d.mu.Unlock()
	return nil
}

// pick routes a principal on the current generation: primary owner and
// next distinct member by consistent hash, two-choice between them by
// in-flight load. Snapshot reads happen outside the director lock.
func (d *Director) pick(principal string) *member {
	d.mu.Lock()
	r := d.ring
	d.mu.Unlock()
	if r == nil {
		return nil
	}
	p, s := r.owners(principal)
	if p == nil || s == nil {
		return p
	}
	if memberLoad(s) < memberLoad(p) {
		return s
	}
	return p
}

func memberLoad(m *member) int {
	n := 0
	if m.stream != nil {
		n += m.stream.Snapshot().Inflight
	}
	if m.packet != nil {
		n += m.packet.Snapshot().Inflight
	}
	return n
}

func (d *Director) count(c *uint64) {
	d.mu.Lock()
	*c++
	d.mu.Unlock()
}

// Stats returns the director's ledger and session census.
func (d *Director) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := 0
	for _, m := range d.members {
		if !m.draining {
			live++
		}
	}
	return Stats{
		Gen:           d.gen,
		Members:       live,
		Sessions:      len(d.sessions),
		Flows:         len(d.flows),
		Admitted:      d.admitted,
		Handoffs:      d.handoffs,
		HandoffFailed: d.handoffFailed,
		Refused:       d.refused,
	}
}

// ---- stream sessions -------------------------------------------------------

// session is one stream connection: the client conn the director
// accepted, and the leg of it the owning member serves. A handoff
// installs the next member, leg and record, then closes moved.
type session struct {
	principal string
	client    *netsim.Conn

	mu     sync.Mutex
	member *member
	leg    *netsim.Conn
	rec    *serve.HandoffRecord
	moved  chan struct{} // made by a handoff in progress
}

func (s *session) ownedBy(m *member) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.member == m
}

// Serve accepts clients until the listener closes, serving each
// connection at its owning member, and returns once every session ends.
func (d *Director) Serve(l *netsim.Listener) error {
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
			d.ServeConn(conn)
		}()
	}
	wg.Wait()
	return serveErr
}

// ServeConn serves one client connection, sharding by its network
// address.
func (d *Director) ServeConn(client *netsim.Conn) {
	d.ServeConnAs(client, client.RemoteAddr())
}

// ServeConnAs serves one client connection under an explicit principal.
// The owning member serves a leg of the connection on this goroutine;
// when a handoff moves the session, the serve continues at the new
// owner on a new leg. It returns when the session ends, and the client
// connection is closed on return. One live session per principal: a
// second concurrent session for the same principal is refused (closed),
// keeping "the principal's session" well-defined for handoff.
func (d *Director) ServeConnAs(client *netsim.Conn, principal string) {
	defer client.Close()
	s := &session{principal: principal, client: client}
	var m *member
	var leg *netsim.Conn
	for m == nil {
		if m = d.pick(principal); m == nil || m.stream == nil {
			d.count(&d.refused)
			return
		}
		d.mu.Lock()
		if _, dup := d.sessions[principal]; dup {
			d.refused++
			d.mu.Unlock()
			return
		}
		// A Remove that began after the pick has rebuilt the ring without
		// m and taken its snapshot of m's sessions: route again, or the
		// session would reach m after its drain and be turned away.
		if m.draining {
			m = nil
		} else {
			leg = client.Splice(m.name, "cluster:"+principal)
			s.member, s.leg = m, leg
			d.sessions[principal] = s
			d.admitted++
		}
		d.mu.Unlock()
	}
	defer func() {
		d.mu.Lock()
		if d.sessions[principal] == s {
			delete(d.sessions, principal)
		}
		d.mu.Unlock()
	}()

	err := m.stream.ServeConnAs(leg, principal)
	for {
		// A runtime that refused the session never installed the leg;
		// detaching it here also tells a pending Hold the session is over.
		leg.Close()
		if !errors.Is(err, serve.ErrHandedOff) {
			return
		}
		s.mu.Lock()
		moved := s.moved
		s.mu.Unlock()
		if moved == nil {
			return // exported by someone other than the director
		}
		<-moved
		s.mu.Lock()
		m, leg, rec := s.member, s.leg, s.rec
		s.moved, s.rec = nil, nil
		s.mu.Unlock()
		if leg == nil {
			return // no home to move to
		}
		err = m.stream.ResumeConnAs(leg, principal, rec)
	}
}

// handoffSession moves one session off a draining member: hold its leg
// until the worker is parked between requests, export the session, and
// install the new owner and leg before returning, so a later Remove
// holds the current leg. A session that ends first is left to end.
func (d *Director) handoffSession(s *session, from *member) {
	s.mu.Lock()
	leg := s.leg
	s.mu.Unlock()
	// A parked worker has registered its session, so the export below
	// finds it. Client bytes sent from here on wait in the client's pipe
	// for the next leg.
	if !leg.Hold() {
		return
	}
	moved := make(chan struct{})
	s.mu.Lock()
	s.moved = moved
	s.mu.Unlock()
	// The leg is held at rest, so a failed export means the session is
	// already unwinding (its leg closed under it): let it end.
	rec, err := from.stream.HandoffPrincipal(s.principal)
	if err != nil {
		return
	}
	to := d.pick(s.principal)
	failed := to == nil || to.stream == nil
	s.mu.Lock()
	if failed {
		s.member, s.leg = nil, nil
	} else {
		s.member, s.rec = to, rec
		s.leg = s.client.Splice(to.name, "cluster:"+s.principal)
	}
	s.mu.Unlock()
	close(moved)
	if failed {
		d.count(&d.handoffFailed)
	} else {
		d.count(&d.handoffs)
	}
}
