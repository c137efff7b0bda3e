// Package netsim is the simulated network testbed: in-memory, full-duplex,
// stream-oriented connections between named endpoints, with two attacker
// facilities the paper's threat models need (§5.1): passive wire taps
// (eavesdropping entire SSL connections) and active interposition (the
// man-in-the-middle, who can eavesdrop on, forward, and inject messages in
// both directions).
package netsim

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Common errors.
var (
	ErrClosed       = errors.New("netsim: connection closed")
	ErrAddrInUse    = errors.New("netsim: address already in use")
	ErrConnRefused  = errors.New("netsim: connection refused")
	ErrListenerDown = errors.New("netsim: listener closed")
)

// Direction labels traffic for taps.
type Direction int

const (
	// ClientToServer is traffic from the dialing side to the listener.
	ClientToServer Direction = iota
	// ServerToClient is traffic from the listener to the dialing side.
	ServerToClient
)

func (d Direction) String() string {
	if d == ClientToServer {
		return "c->s"
	}
	return "s->c"
}

// pipe is one unidirectional buffered byte stream. Unread bytes live in
// buf[off:]; when a read drains the pipe the buffer rewinds to its base
// so steady-state request/response traffic reuses one allocation instead
// of crawling append's capacity forward on every exchange. A spliced
// conn's pipes (see Conn.Splice) also name their current leg and keep
// its hold state.
type pipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	off    int
	wclose bool // writer closed: drain then EOF
	rclose bool // reader closed: writes fail

	// Leg state. The fields are ordered so a pipe, touched on every
	// exchange, still fits one 64-byte allocation.
	held       bool  // leg consumes nothing while all it read is answered
	parked     bool  // leg waits in Read
	unanswered bool  // leg read bytes it has not answered with a write
	leg        *Conn // the current leg reading or writing the pipe, if any
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.off == len(p.buf) {
		if p.rclose {
			return 0, ErrClosed
		}
		if p.wclose {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	return p.take(b), nil
}

// take consumes buffered bytes into b; the pipe must not be empty.
func (p *pipe) take(b []byte) int {
	n := copy(b, p.buf[p.off:])
	p.off += n
	if p.off == len(p.buf) {
		p.buf = p.buf[:0]
		p.off = 0
	}
	return n
}

// readLeg is Read through leg, which fails once leg is detached. A held
// leg with every request it read answered consumes nothing, not even
// EOF: it parks, which is what Hold waits for.
func (p *pipe) readLeg(leg *Conn, b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.leg != leg || p.rclose {
			return 0, ErrClosed
		}
		if !p.held || p.unanswered {
			if p.off < len(p.buf) {
				break
			}
			if p.wclose {
				return 0, io.EOF
			}
		}
		p.parked = true
		if p.held {
			p.cond.Broadcast() // the Hold waiting for this park
		}
		p.cond.Wait()
		if p.leg == leg {
			p.parked = false
		}
	}
	p.unanswered = true
	return p.take(b), nil
}

// write appends b for from: nil for a plain conn, or a leg, which may
// write only while it is current.
func (p *pipe) write(from *Conn, b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wclose || p.rclose || (from != nil && from != p.leg) {
		return 0, ErrClosed
	}
	p.buf = append(p.buf, b...)
	// One waiter is enough: whoever wakes drains the buffer, and every
	// later write signals again. Close paths still broadcast so every
	// blocked reader observes EOF. A Hold waits on the same cond.
	if p.leg != nil {
		p.cond.Broadcast()
	} else {
		p.cond.Signal()
	}
	return len(b), nil
}

// closeWrite marks the writer closed; from is as for write.
func (p *pipe) closeWrite(from *Conn) {
	p.mu.Lock()
	if from == nil || from == p.leg {
		p.wclose = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rclose = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// current reports whether leg is the pipe's leg; answered (for a reading
// leg) also records that everything it read is answered.
func (p *pipe) current(leg *Conn, answered bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.leg != leg {
		return false
	}
	if answered {
		p.unanswered = false
	}
	return true
}

// setLeg replaces the pipe's leg with to, when it is from or when from is
// nil. The replaced leg is detached: its reader and any Hold on it wake
// and give up.
func (p *pipe) setLeg(from, to *Conn) {
	p.mu.Lock()
	if from == nil || from == p.leg {
		p.leg, p.held, p.parked, p.unanswered = to, false, false, false
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Conn is one endpoint of a simulated full-duplex connection. It satisfies
// the subset of net.Conn the applications use (Read, Write, Close, address
// accessors); deadlines are not modelled.
type Conn struct {
	r, w      *pipe
	local     string
	remote    string
	tap       TapFunc
	dir       Direction // direction of writes from this endpoint
	leg       *Conn     // c itself if Splice made c, else nil
	closeOnce sync.Once
}

// TapFunc observes bytes crossing the wire. It must not retain the slice.
type TapFunc func(dir Direction, data []byte)

// Read reads from the connection.
func (c *Conn) Read(b []byte) (int, error) {
	if c.leg != nil {
		return c.r.readLeg(c, b)
	}
	return c.r.Read(b)
}

// Write writes to the connection, invoking any wire tap first.
func (c *Conn) Write(b []byte) (int, error) {
	if c.leg != nil {
		return c.writeLeg(b)
	}
	if c.tap != nil {
		c.tap(c.dir, b)
	}
	return c.w.write(nil, b)
}

// writeLeg is Write through a leg: the tap sees only a current leg's
// bytes, and the write answers what the leg has read.
func (c *Conn) writeLeg(b []byte) (int, error) {
	if c.tap != nil && c.w.current(c, false) {
		c.tap(c.dir, b)
	}
	n, err := c.w.write(c, b)
	if err == nil {
		c.r.current(c, true)
	}
	return n, err
}

// Close shuts down both directions. Closing a leg only detaches it: its
// reads and writes fail from then on, and the conn stays open.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.leg != nil {
			c.r.setLeg(c, nil)
			c.w.setLeg(c, nil)
			return
		}
		c.w.closeWrite(nil)
		c.r.closeRead()
	})
	return nil
}

// CloseWrite half-closes the sending direction (like shutdown(SHUT_WR)).
func (c *Conn) CloseWrite() { c.w.closeWrite(c.leg) }

// Splice makes a new leg of c and detaches every older one. A leg reads
// and writes c's own two pipes under the labels local and remote, and
// c's tap sees its writes: a relay hands a server its client's stream
// without copying a byte, and keeps control through Hold and by
// splicing or closing legs. Only one end of a connection may be spliced.
func (c *Conn) Splice(local, remote string) *Conn {
	leg := &Conn{r: c.r, w: c.w, local: local, remote: remote, tap: c.tap, dir: c.dir}
	leg.leg = leg
	c.r.setLeg(nil, leg)
	c.w.setLeg(nil, leg)
	return leg
}

// Hold stops leg c consuming at its next request boundary and waits
// until its reader is parked in Read with every request it read answered
// by a write; a reader parked after reading part of a request reads on
// until it answers. Bytes the peer sends meanwhile stay in the pipe for
// the next leg, and c stays held until it is detached. Hold reports
// false if c was detached, or the conn closed, first.
func (c *Conn) Hold() bool {
	p := c.r
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.leg == c && !p.rclose {
		p.held = true
		if p.parked && !p.unanswered {
			return true
		}
		p.cond.Wait()
	}
	return false
}

// LocalAddr returns the endpoint's own address label.
func (c *Conn) LocalAddr() string { return c.local }

// RemoteAddr returns the peer's address label.
func (c *Conn) RemoteAddr() string { return c.remote }

// connPair builds two connected endpoints. tap observes all traffic.
func connPair(clientAddr, serverAddr string, tap TapFunc) (client, server *Conn) {
	c2s := newPipe()
	s2c := newPipe()
	client = &Conn{r: s2c, w: c2s, local: clientAddr, remote: serverAddr, tap: tap, dir: ClientToServer}
	server = &Conn{r: c2s, w: s2c, local: serverAddr, remote: clientAddr, tap: tap, dir: ServerToClient}
	return client, server
}

// Pipe builds a connected pair outside any Network, for handing a
// server a conn directly rather than through a listener.
func Pipe(clientAddr, serverAddr string) (client, server *Conn) {
	return connPair(clientAddr, serverAddr, nil)
}

// Listener accepts inbound connections for a bound address.
type Listener struct {
	net    *Network
	addr   string
	mu     sync.Mutex
	queue  chan *Conn
	closed bool
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.queue
	if !ok {
		return nil, ErrListenerDown
	}
	return c, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.addr }

// Close unbinds the address and wakes pending Accepts.
func (l *Listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.queue)
	l.net.mu.Lock()
	if l.net.listeners[l.addr] == l {
		delete(l.net.listeners, l.addr)
	}
	l.net.mu.Unlock()
	return nil
}

func (l *Listener) deliver(c *Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrConnRefused
	}
	l.queue <- c
	return nil
}

// Interposer is an active man-in-the-middle. When installed on an address,
// every new connection to that address is routed to the Interposer instead:
// it receives the client-facing leg and a dialer for the genuine server, so
// it can forward, record, modify, or inject traffic in either direction.
type Interposer func(clientLeg *Conn, dialServer func() (*Conn, error))

// Network is a simulated network segment.
type Network struct {
	mu          sync.Mutex
	listeners   map[string]*Listener
	packets     map[string]*PacketConn
	taps        map[string]TapFunc
	interposers map[string]Interposer
	dialSeq     int
}

// New returns an empty network.
func New() *Network {
	return &Network{
		listeners:   make(map[string]*Listener),
		packets:     make(map[string]*PacketConn),
		taps:        make(map[string]TapFunc),
		interposers: make(map[string]Interposer),
	}
}

// Listen binds addr.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	if _, ok := n.packets[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{net: n, addr: addr, queue: make(chan *Conn, 64)}
	n.listeners[addr] = l
	return l, nil
}

// Tap installs a passive eavesdropper on all future connections to addr.
// This models the simple threat model of §5.1.1 (attacker "can eavesdrop
// on entire SSL connections").
func (n *Network) Tap(addr string, tap TapFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taps[addr] = tap
}

// Interpose installs a man-in-the-middle on addr (§5.1.2 threat model).
// Passing nil removes it.
func (n *Network) Interpose(addr string, mitm Interposer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mitm == nil {
		delete(n.interposers, addr)
		return
	}
	n.interposers[addr] = mitm
}

// Dial connects to addr, returning the client endpoint.
func (n *Network) Dial(addr string) (*Conn, error) {
	n.mu.Lock()
	n.dialSeq++
	clientAddr := fmt.Sprintf("client-%d", n.dialSeq)
	mitm := n.interposers[addr]
	tap := n.taps[addr]
	l := n.listeners[addr]
	n.mu.Unlock()

	if mitm != nil {
		// Hand the client a leg terminated by the interposer; give the
		// interposer a dialer that bypasses interposition (so it can
		// reach the genuine server).
		clientLeg, mitmLeg := connPair(clientAddr, addr, tap)
		dialServer := func() (*Conn, error) { return n.dialDirect(addr) }
		go mitm(mitmLeg, dialServer)
		return clientLeg, nil
	}
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client, server := connPair(clientAddr, addr, tap)
	if err := l.deliver(server); err != nil {
		return nil, err
	}
	return client, nil
}

// dialDirect connects to the real listener, ignoring interposers.
func (n *Network) dialDirect(addr string) (*Conn, error) {
	n.mu.Lock()
	n.dialSeq++
	clientAddr := fmt.Sprintf("mitm-%d", n.dialSeq)
	tap := n.taps[addr]
	l := n.listeners[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client, server := connPair(clientAddr, addr, tap)
	if err := l.deliver(server); err != nil {
		return nil, err
	}
	return client, nil
}

// Relay copies bytes from src to dst until EOF, optionally passing each
// chunk through transform (which may return a modified copy). It is the
// building block interposers use for forwarding.
func Relay(dst, src *Conn, transform func([]byte) []byte) error {
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if transform != nil {
				chunk = transform(chunk)
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return werr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				dst.CloseWrite()
				return nil
			}
			return err
		}
	}
}

// PassiveMITM returns an Interposer that forwards traffic unmodified while
// recording it with tap — the "passively passes messages as-is" attack of
// §5.1.2 where the attacker waits for an exploited worker to leak the
// session key.
func PassiveMITM(tap TapFunc) Interposer {
	return func(clientLeg *Conn, dialServer func() (*Conn, error)) {
		serverLeg, err := dialServer()
		if err != nil {
			clientLeg.Close()
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = Relay(serverLeg, clientLeg, func(b []byte) []byte {
				if tap != nil {
					tap(ClientToServer, b)
				}
				return b
			})
		}()
		go func() {
			defer wg.Done()
			_ = Relay(clientLeg, serverLeg, func(b []byte) []byte {
				if tap != nil {
					tap(ServerToClient, b)
				}
				return b
			})
		}()
		wg.Wait()
		clientLeg.Close()
		serverLeg.Close()
	}
}
