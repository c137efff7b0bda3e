package netsim

import (
	"fmt"
	"sync"
)

// Datagram is one packet in flight: a payload copy plus the sender's
// address label. Message boundaries are preserved — one WriteTo on the
// sending side is one ReadFrom on the receiving side.
type Datagram struct {
	From    string
	Payload []byte
}

// maxPacketQueue bounds a socket's receive queue. Datagrams arriving at
// a full queue are dropped silently, like UDP under a slow consumer.
const maxPacketQueue = 256

// PacketConn is a bound datagram socket. Unlike Conn there is no peer:
// every WriteTo names a destination and every ReadFrom reports a source,
// which is exactly what lets a serve runtime demultiplex principals
// per-packet instead of per-accept.
type PacketConn struct {
	net  *Network
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Datagram
	closed bool
}

// ListenPacket binds addr as a datagram socket. Stream and packet
// addresses share one namespace, mirroring a host where a port is a port.
func (n *Network) ListenPacket(addr string) (*PacketConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.packets[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	pc := &PacketConn{net: n, addr: addr}
	pc.cond = sync.NewCond(&pc.mu)
	if n.packets == nil {
		n.packets = make(map[string]*PacketConn)
	}
	n.packets[addr] = pc
	return pc, nil
}

// DialPacket binds an ephemeral client socket ("udp-<n>"): the datagram
// analogue of Dial's fresh "client-<n>" address, so each dial is a fresh
// principal from the server's point of view.
func (n *Network) DialPacket() (*PacketConn, error) {
	n.mu.Lock()
	n.dialSeq++
	addr := fmt.Sprintf("udp-%d", n.dialSeq)
	n.mu.Unlock()
	return n.ListenPacket(addr)
}

// Addr returns the bound address.
func (pc *PacketConn) Addr() string { return pc.addr }

// WriteTo sends one datagram to the socket bound at addr. Undeliverable
// packets (no such socket, closed socket, full queue) are dropped
// silently: datagram transports promise nothing, and the apps above must
// survive loss anyway. The payload is copied, so the caller may reuse b.
func (pc *PacketConn) WriteTo(b []byte, addr string) (int, error) {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return 0, ErrClosed
	}
	pc.mu.Unlock()

	pc.net.mu.Lock()
	dst := pc.net.packets[addr]
	pc.net.mu.Unlock()
	if dst == nil {
		return len(b), nil
	}
	dst.mu.Lock()
	if !dst.closed && len(dst.queue) < maxPacketQueue {
		dst.queue = append(dst.queue, Datagram{From: pc.addr, Payload: append([]byte(nil), b...)})
		dst.cond.Broadcast()
	}
	dst.mu.Unlock()
	return len(b), nil
}

// ReadFrom blocks for the next datagram and copies its payload into b,
// reporting the byte count and the sender's address. A payload longer
// than b is truncated, UDP-style — the rest of that datagram is lost,
// not carried over to the next read.
func (pc *PacketConn) ReadFrom(b []byte) (int, string, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for len(pc.queue) == 0 {
		if pc.closed {
			return 0, "", ErrClosed
		}
		pc.cond.Wait()
	}
	d := pc.queue[0]
	pc.queue = pc.queue[1:]
	return copy(b, d.Payload), d.From, nil
}

// PacketLeg is the datagram counterpart of a spliced Conn: a view of a
// PacketConn that sends only to one peer, from the socket's own address,
// and cannot read. A relay hands a server one leg per client flow, so the
// server can answer that client and reach nothing else, and revokes it by
// closing it.
type PacketLeg struct {
	pc   *PacketConn
	peer string

	mu       sync.Mutex
	detached bool
}

// Splice makes a leg of pc that sends to peer.
func (pc *PacketConn) Splice(peer string) *PacketLeg {
	return &PacketLeg{pc: pc, peer: peer}
}

// Peer returns the one address the leg sends to.
func (l *PacketLeg) Peer() string { return l.peer }

// Write sends b as one datagram to the leg's peer, with WriteTo's
// semantics. It fails with ErrClosed once the leg is detached.
func (l *PacketLeg) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.detached {
		return 0, ErrClosed
	}
	return l.pc.WriteTo(b, l.peer)
}

// Close detaches the leg: its writes fail from then on, and a write
// already under way has finished when Close returns. The socket stays
// open.
func (l *PacketLeg) Close() error {
	l.mu.Lock()
	l.detached = true
	l.mu.Unlock()
	return nil
}

// Close unbinds the socket and wakes blocked readers with ErrClosed.
// Queued-but-unread datagrams are discarded.
func (pc *PacketConn) Close() error {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return nil
	}
	pc.closed = true
	pc.queue = nil
	pc.cond.Broadcast()
	pc.mu.Unlock()

	pc.net.mu.Lock()
	if pc.net.packets[pc.addr] == pc {
		delete(pc.net.packets, pc.addr)
	}
	pc.net.mu.Unlock()
	return nil
}
