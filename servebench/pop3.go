package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

const (
	pop3Addr  = "pop3:110"
	pop3Slots = 4
	// premainImage is the pre-main image every booted app carries: pages
	// written before Main, inherited copy-on-write by every sthread.
	premainImage = 1 << 20
	// hdrLen is the principal header a client sends before the protocol:
	// the principal's 17 characters and a newline. The accept loop reads
	// it and serves the connection as that principal, as a front end
	// speaking the PROXY protocol would.
	hdrLen = 18
)

// boot starts a fresh kernel and app with the pre-main image and runs
// build inside Main. It returns once build has returned; the app stays up
// until stop is called.
func boot(build func(root *sthread.Sthread) (io.Closer, error)) (k *kernel.Kernel, stop func() error, err error) {
	k = kernel.New()
	app := sthread.Boot(k)
	var perr error
	app.Premain(func(init *kernel.Task) {
		base, err := init.Mmap(premainImage, vm.PermRW)
		if err != nil {
			perr = err
			return
		}
		for off := 0; off < premainImage; off += vm.PageSize {
			init.AS.Store64(base+vm.Addr(off), uint64(off))
		}
	})
	if perr != nil {
		return nil, nil, fmt.Errorf("premain: %w", perr)
	}
	ready := make(chan error, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := build(root)
			ready <- err
			if err != nil {
				return
			}
			<-quit
			srv.Close()
		})
	}()
	select {
	case err = <-ready:
	case err = <-done:
		if err == nil {
			err = errors.New("main returned before the server was built")
		}
		return nil, nil, err
	}
	if err != nil {
		<-done
		return nil, nil, err
	}
	return k, func() error { close(quit); return <-done }, nil
}

// pop3Member is one pooled pop3 runtime on its own kernel.
type pop3Member struct {
	k    *kernel.Kernel
	srv  *pop3.PooledServer
	stop func() error
}

func startPop3(in *inputs, t *tracer) (*pop3Member, error) {
	m := &pop3Member{}
	var err error
	m.k, m.stop, err = boot(func(root *sthread.Sthread) (io.Closer, error) {
		srv, err := pop3.NewPooledConfig(root, in.boxes, pop3.PoolConfig{Slots: pop3Slots}, t.pop3Hooks())
		m.srv = srv
		return srv, err
	})
	if err != nil {
		return nil, fmt.Errorf("pop3 member: %w", err)
	}
	return m, nil
}

// acceptor is the benchmark's accept loop: it reads each connection's
// principal header and serves it with serveAs on its own goroutine, as
// serve.Runtime.Serve does with ServeConn.
type acceptor struct {
	l    *netsim.Listener
	done chan struct{}
}

func startAcceptor(l *netsim.Listener, t *tracer, serveAs func(*netsim.Conn, string)) *acceptor {
	a := &acceptor{l: l, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		var wg sync.WaitGroup
		for {
			conn, err := l.Accept()
			if err != nil {
				break // listener closed
			}
			acceptAt := t.stamp()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var hdr [hdrLen]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil || hdr[hdrLen-1] != '\n' {
					return
				}
				principal := string(hdr[:hdrLen-1])
				t.accepted(principal, acceptAt)
				serveAs(conn, principal)
				t.closeSession(principal)
			}()
		}
		wg.Wait()
	}()
	return a
}

func (a *acceptor) close() {
	a.l.Close()
	<-a.done
}

// pop3Env is a pop3 deployment under test: one pooled runtime behind the
// accept loop, or (cluster) a director in front of several members.
type pop3Env struct {
	in      *inputs
	t       *tracer
	members []*pop3Member
	dir     *cluster.Director
	acc     *acceptor
	dial    func() (*netsim.Conn, error)
	dialed  atomic.Uint64 // sessions clients opened
}

func newPop3Env(in *inputs, t *tracer) (env, error) {
	m, err := startPop3(in, t)
	if err != nil {
		return nil, err
	}
	e := &pop3Env{in: in, t: t, members: []*pop3Member{m}}
	l, err := m.k.Net.Listen(pop3Addr)
	if err != nil {
		m.stop()
		return nil, err
	}
	e.acc = startAcceptor(l, t, func(c *netsim.Conn, p string) {
		t.serve(c, p, m.srv.ServeConnAs)
	})
	e.dial = func() (*netsim.Conn, error) { return m.k.Net.Dial(pop3Addr) }
	return e, nil
}

// clusterMembers is the cluster-pop3 member count.
const clusterMembers = 3

func newClusterEnv(in *inputs, t *tracer) (env, error) {
	e := &pop3Env{in: in, t: t, dir: cluster.New()}
	for i := 0; i < clusterMembers; i++ {
		m, err := startPop3(in, t)
		if err != nil {
			e.close()
			return nil, err
		}
		e.members = append(e.members, m)
		var backend cluster.StreamBackend = m.srv
		if t != nil {
			backend = tracedMember{PooledServer: m.srv, t: t}
		}
		if err := e.dir.Add(cluster.Member{Name: fmt.Sprintf("m%d", i), Stream: backend}); err != nil {
			e.close()
			return nil, err
		}
	}
	front := netsim.New()
	l, err := front.Listen(pop3Addr)
	if err != nil {
		e.close()
		return nil, err
	}
	e.acc = startAcceptor(l, t, func(c *netsim.Conn, p string) {
		start := t.stamp()
		e.dir.ServeConnAs(c, p)
		t.span(spClusterSession, start)
	})
	e.dial = func() (*netsim.Conn, error) { return front.Dial(pop3Addr) }
	return e, nil
}

func (e *pop3Env) counters() counters {
	var c counters
	for _, m := range e.members {
		c.addSnapshot(m.srv.Snapshot())
	}
	c.snapshots = e.t.snapshotCount()
	return c
}

// settle waits for every runtime to go quiet once the clients have
// closed, then checks the ledgers: every session a client opened was
// admitted exactly once and served, nothing is in flight, and the conn
// tables are empty.
func (e *pop3Env) settle() error {
	var admitted, served uint64
	for i, m := range e.members {
		s, err := waitFor(m.srv.Snapshot, func(s serve.Snapshot) bool { return s.Inflight == 0 })
		if err != nil {
			return fmt.Errorf("member %d not quiet: inflight=%d", i, s.Inflight)
		}
		if err := ledger(s); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		admitted += s.Admitted
		served += s.Served
	}
	if dialed := e.dialed.Load(); admitted != dialed || served != dialed {
		return fmt.Errorf("pop3: %d sessions opened, %d admitted, %d served", dialed, admitted, served)
	}
	if e.dir != nil {
		st, err := waitFor(e.dir.Stats, func(s cluster.Stats) bool { return s.Sessions == 0 })
		if err != nil {
			return fmt.Errorf("director still relays %d sessions", st.Sessions)
		}
		if st.Admitted != e.dialed.Load() || st.Refused != 0 || st.Handoffs != 0 {
			return fmt.Errorf("director: admitted %d of %d sessions, refused %d, handed off %d",
				st.Admitted, e.dialed.Load(), st.Refused, st.Handoffs)
		}
	}
	return nil
}

func (e *pop3Env) close() error {
	if e.acc != nil {
		e.acc.close()
	}
	var first error
	for _, m := range e.members {
		if err := m.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// p3conn is a client's side of one pop3 session.
type p3conn struct {
	conn *netsim.Conn
	buf  []byte // unread bytes are buf[off:]
	off  int
	cmd  []byte
}

// open dials a session as principal and reads the greeting. Under
// tracing it returns the session's stamp record.
func (e *pop3Env) open(c *p3conn, principal string) (*sessRec, error) {
	e.dialed.Add(1)
	rec := e.t.openSession(principal)
	start := e.t.stamp()
	conn, err := e.dial()
	if err != nil {
		return rec, err
	}
	if rec != nil {
		rec.dialRet.Store(now())
		e.t.span(spDial, start)
	}
	c.conn, c.buf, c.off = conn, c.buf[:0], 0
	c.cmd = append(append(c.cmd[:0], principal...), '\n')
	if _, err := conn.Write(c.cmd); err != nil {
		return rec, err
	}
	start = e.t.stamp()
	if err := c.expect("+OK"); err != nil {
		return rec, fmt.Errorf("greeting: %w", err)
	}
	e.t.span(spGreet, start)
	return rec, nil
}

func (e *pop3Env) login(c *p3conn, box *pop3.Mailbox) error {
	start := e.t.stamp()
	if err := c.round("USER ", box.User, "+OK"); err != nil {
		return err
	}
	e.t.span(spUser, start)
	start = e.t.stamp()
	if err := c.round("PASS ", box.Password, "+OK logged in"); err != nil {
		return err
	}
	e.t.span(spPass, start)
	return nil
}

// retr fetches message num and returns its body, which stays valid until
// the connection's next read.
func (e *pop3Env) retr(c *p3conn, num int) ([]byte, error) {
	start := e.t.stamp()
	c.cmd = strconv.AppendInt(append(c.cmd[:0], "RETR "...), int64(num), 10)
	c.cmd = append(c.cmd, '\r', '\n')
	if _, err := c.conn.Write(c.cmd); err != nil {
		return nil, err
	}
	line, err := c.line()
	if err != nil {
		return nil, err
	}
	size, ok := bytes.CutPrefix(line, []byte("+OK "))
	size, ok2 := bytes.CutSuffix(size, []byte(" octets"))
	n, err := strconv.Atoi(string(size))
	if !ok || !ok2 || err != nil {
		return nil, fmt.Errorf("RETR: got %q", line)
	}
	body, err := c.read(n + 5)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(body, []byte("\r\n.\r\n")) {
		return nil, errors.New("RETR: body not terminated by CRLF.CRLF")
	}
	e.t.span(spRetr, start)
	return body[:n], nil
}

func (e *pop3Env) quit(c *p3conn, rec *sessRec) error {
	start := e.t.stamp()
	err := c.round("QUIT", "", "+OK bye")
	if rec != nil && err == nil {
		rec.byeAt.Store(now())
		e.t.span(spQuit, start)
	}
	e.t.done(rec)
	c.conn.Close()
	c.conn = nil
	return err
}

// round sends one command line and expects a reply line with prefix.
func (c *p3conn) round(verb, arg, prefix string) error {
	c.cmd = append(append(append(c.cmd[:0], verb...), arg...), '\r', '\n')
	if _, err := c.conn.Write(c.cmd); err != nil {
		return err
	}
	return c.expect(prefix)
}

func (c *p3conn) expect(prefix string) error {
	line, err := c.line()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return fmt.Errorf("got %q, want %s", line, prefix)
	}
	return nil
}

// line returns the next CRLF-terminated line without its terminator.
func (c *p3conn) line() ([]byte, error) {
	for {
		if i := bytes.Index(c.buf[c.off:], []byte("\r\n")); i >= 0 {
			line := c.buf[c.off : c.off+i]
			c.off += i + 2
			return line, nil
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// read returns exactly n more bytes.
func (c *p3conn) read(n int) ([]byte, error) {
	for len(c.buf)-c.off < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *p3conn) fill() error {
	if c.off > 0 {
		c.buf = c.buf[:copy(c.buf, c.buf[c.off:])]
		c.off = 0
	}
	if len(c.buf) == cap(c.buf) {
		c.buf = append(c.buf, make([]byte, cap(c.buf)+512)...)[:len(c.buf)]
	}
	n, err := c.conn.Read(c.buf[len(c.buf):cap(c.buf)])
	c.buf = c.buf[:len(c.buf)+n]
	return err
}

// churnClient runs pop3-churn and cluster-pop3: every op is a full
// session on a fresh connection from a fresh principal.
type churnClient struct {
	e   *pop3Env
	rng *rand.Rand
	c   p3conn
	retrieved
}

// retrieved is the last RETR's body and the stored message it must equal.
type retrieved struct {
	want string
	got  []byte
}

func (r *retrieved) verify() error {
	if string(r.got) != r.want {
		return fmt.Errorf("RETR body of %d bytes differs from the %d-byte stored message", len(r.got), len(r.want))
	}
	return nil
}

func (e *pop3Env) newChurn() *churnClient {
	return &churnClient{e: e, rng: e.in.clientRNG()}
}

func (cl *churnClient) exchange() error {
	e, c := cl.e, &cl.c
	p := principal(cl.rng)
	box, num := e.in.pickMessage(cl.rng)
	cl.want, cl.got = box.Messages[num-1], cl.got[:0]
	rec, err := e.open(c, p)
	if err != nil {
		e.abandon(c, p)
		return err
	}
	if err := e.login(c, box); err != nil {
		e.abandon(c, p)
		return err
	}
	body, err := e.retr(c, num)
	if err != nil {
		e.abandon(c, p)
		return err
	}
	cl.got = append(cl.got, body...)
	return e.quit(c, rec)
}

// abandon drops a failed session.
func (e *pop3Env) abandon(c *p3conn, principal string) {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	e.t.closeSession(principal)
}

func (cl *churnClient) close() error { return nil }

// residentClient runs pop3-resident: one authenticated session for the
// whole run, and every op one RETR of a seeded message.
type residentClient struct {
	e         *pop3Env
	rng       *rand.Rand
	c         p3conn
	principal string
	rec       *sessRec
	box       *pop3.Mailbox
	retrieved
}

// newResident opens and logs in the session the client holds all run.
func (e *pop3Env) newResident() (*residentClient, error) {
	cl := &residentClient{e: e, rng: e.in.clientRNG()}
	cl.principal = principal(cl.rng)
	cl.box, _ = e.in.pickMessage(cl.rng)
	var err error
	if cl.rec, err = e.open(&cl.c, cl.principal); err == nil {
		err = e.login(&cl.c, cl.box)
	}
	if err != nil {
		e.abandon(&cl.c, cl.principal)
		return nil, err
	}
	return cl, nil
}

func (cl *residentClient) exchange() error {
	if cl.c.conn == nil {
		return errors.New("pop3: the resident session was lost")
	}
	num := 1 + cl.rng.IntN(len(cl.box.Messages))
	cl.want = cl.box.Messages[num-1]
	body, err := cl.e.retr(&cl.c, num)
	if err != nil {
		cl.e.abandon(&cl.c, cl.principal)
		return err
	}
	cl.got = append(cl.got[:0], body...)
	return nil
}

func (cl *residentClient) close() error {
	if cl.c.conn == nil {
		return nil
	}
	return cl.e.quit(&cl.c, cl.rec)
}

// waitFor polls snap until ok holds, for up to five seconds.
func waitFor[S any](snap func() S, ok func(S) bool) (S, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := snap()
		if ok(s) {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, errors.New("timed out")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ledger checks a quiet runtime's books: every admission retired under
// exactly one outcome, nothing handed off, and no conn-table entry left.
func ledger(s serve.Snapshot) error {
	if s.Admitted != s.Served+s.Failed+s.Handed || s.Inflight != 0 || s.Handed != 0 {
		return fmt.Errorf("%s ledger: admitted=%d served=%d failed=%d handed=%d inflight=%d",
			s.App, s.Admitted, s.Served, s.Failed, s.Handed, s.Inflight)
	}
	if s.Conns.Entries != 0 {
		return fmt.Errorf("%s conn table holds %d entries at rest", s.App, s.Conns.Entries)
	}
	return nil
}
