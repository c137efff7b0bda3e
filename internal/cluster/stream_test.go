// Stream sessions on legs: moving a held session more than once,
// requests sent while a leg is held, and what one session costs the
// director.
package cluster_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// popMember starts one pop3 runtime in its own kernel, stopped at
// cleanup.
func popMember(tb testing.TB) *pop3.PooledServer {
	tb.Helper()
	ready := make(chan *pop3.PooledServer, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		app := sthread.Boot(kernel.New())
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := pop3.NewPooled(root, testBoxes(), 2, pop3.Hooks{})
			if err != nil {
				tb.Error(err)
				close(ready)
				return
			}
			ready <- srv
			<-quit
			srv.Close()
		})
	}()
	srv := <-ready
	if srv == nil {
		tb.FailNow()
	}
	tb.Cleanup(func() {
		close(quit)
		if err := <-done; err != nil {
			tb.Errorf("pop3 member: %v", err)
		}
	})
	return srv
}

// popCluster puts a director over the named backends and serves it on a
// front network, stopped at cleanup.
func popCluster(tb testing.TB, backends map[string]cluster.StreamBackend) (*cluster.Director, *netsim.Network) {
	tb.Helper()
	d := cluster.New()
	for name, b := range backends {
		if err := d.Add(cluster.Member{Name: name, Stream: b}); err != nil {
			tb.Fatal(err)
		}
	}
	front := netsim.New()
	l, err := front.Listen("pop3:110")
	if err != nil {
		tb.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		d.Serve(l)
		close(served)
	}()
	tb.Cleanup(func() {
		l.Close()
		<-served
	})
	return d, front
}

// owner returns the one member with a session or flow in flight.
func owner[B interface{ Snapshot() serve.Snapshot }](tb testing.TB, members map[string]B) string {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found []string
		for name, m := range members {
			if m.Snapshot().Inflight > 0 {
				found = append(found, name)
			}
		}
		if len(found) == 1 {
			return found[0]
		}
		if time.Now().After(deadline) {
			tb.Fatalf("members in flight: %v, want exactly one", found)
		}
		time.Sleep(time.Millisecond)
	}
}

func login(tb testing.TB, front *netsim.Network) *popCli {
	tb.Helper()
	c, err := dialPop(front)
	if err != nil {
		tb.Fatal(err)
	}
	for _, line := range []string{"USER alice", "PASS sesame"} {
		if resp, err := c.cmd(line); err != nil || !strings.HasPrefix(resp, "+OK") {
			tb.Fatalf("%s: %q %v", line, resp, err)
		}
	}
	return c
}

// TestHeldSessionMovesTwice: two back-to-back Removes move one held
// session twice, and the client, silent throughout, finishes its
// session at the third member without an error.
func TestHeldSessionMovesTwice(t *testing.T) {
	members := map[string]*pop3.PooledServer{
		"m0": popMember(t), "m1": popMember(t), "m2": popMember(t),
	}
	backends := make(map[string]cluster.StreamBackend)
	for name, m := range members {
		backends[name] = m
	}
	d, front := popCluster(t, backends)
	c := login(t, front)
	defer c.conn.Close()

	for i := 0; i < 2; i++ {
		from := owner(t, members)
		if err := d.Remove(from); err != nil {
			t.Fatalf("remove %s: %v", from, err)
		}
		if s := members[from].Snapshot(); s.Handed != 1 || s.Inflight != 0 {
			t.Fatalf("removed %s: handed=%d inflight=%d, want 1/0", from, s.Handed, s.Inflight)
		}
		delete(members, from)
	}
	if st := d.Stats(); st.Handoffs != 2 || st.HandoffFailed != 0 {
		t.Fatalf("director stats %+v: want 2 handoffs, 0 failed", st)
	}

	if resp, err := c.cmd("STAT"); err != nil || resp != "+OK 1 messages" {
		t.Fatalf("STAT after two moves: %q %v", resp, err)
	}
	if resp, err := c.cmd("RETR 1"); err != nil || !strings.HasPrefix(resp, "+OK") {
		t.Fatalf("RETR after two moves: %q %v", resp, err)
	}
	if body, err := c.body(); err != nil || !strings.Contains(body, "hi alice") {
		t.Fatalf("RETR body: %q %v", body, err)
	}
	if resp, err := c.cmd("QUIT"); err != nil || resp != "+OK bye" {
		t.Fatalf("QUIT: %q %v", resp, err)
	}
}

// exportHook runs before a member's session export, that is, while the
// director holds the session's leg at rest.
type exportHook struct {
	cluster.StreamBackend
	before func()
}

func (h exportHook) HandoffPrincipal(principal string) (*serve.HandoffRecord, error) {
	h.before()
	return h.StreamBackend.HandoffPrincipal(principal)
}

// TestRequestWhileHeld: a request the client sends while its leg is
// held waits in the client's pipe and is answered exactly once, at the
// new home.
func TestRequestWhileHeld(t *testing.T) {
	members := map[string]*pop3.PooledServer{"m0": popMember(t), "m1": popMember(t)}
	var c *popCli
	sent := false
	send := func() {
		if _, err := c.conn.Write([]byte("STAT\r\n")); err != nil {
			t.Errorf("STAT while held: %v", err)
		}
		sent = true
	}
	backends := make(map[string]cluster.StreamBackend)
	for name, m := range members {
		backends[name] = exportHook{m, send}
	}
	d, front := popCluster(t, backends)
	c = login(t, front)
	defer c.conn.Close()

	from := owner(t, members)
	if err := d.Remove(from); err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("the session was never exported")
	}
	home := "m0"
	if from == "m0" {
		home = "m1"
	}
	if s := members[from].Snapshot(); s.Handed != 1 || s.Served != 0 {
		t.Fatalf("old home handed=%d served=%d, want 1/0", s.Handed, s.Served)
	}

	// One answer to the STAT, then QUIT's: a second STAT answer would
	// stand where "+OK bye" belongs.
	resp, err := c.r.ReadString('\n')
	if err != nil || resp != "+OK 1 messages\r\n" {
		t.Fatalf("STAT sent while held: %q %v", resp, err)
	}
	if resp, err := c.cmd("QUIT"); err != nil || resp != "+OK bye" {
		t.Fatalf("QUIT: %q %v", resp, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for members[home].Snapshot().Served != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("new home %s never served the session: %+v", home, members[home].Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledPick is a member whose load reads can be stalled and skewed:
// hook runs before each Snapshot, and extra is added to its Inflight.
type stalledPick struct {
	cluster.StreamBackend
	extra int
	hook  func()
}

func (p stalledPick) Snapshot() serve.Snapshot {
	p.hook()
	s := p.StreamBackend.Snapshot()
	s.Inflight += p.extra
	return s
}

// TestRouteRacingRemove: a session whose route was picked just before a
// Remove of that member began is routed again, not turned away by the
// drained member.
func TestRouteRacingRemove(t *testing.T) {
	picking, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	stall := func() { once.Do(func() { close(picking); <-release }) }
	// m0 reads as loaded, so the two-choice pick lands on m1.
	d, front := popCluster(t, map[string]cluster.StreamBackend{
		"m0": stalledPick{popMember(t), 1000, stall},
		"m1": stalledPick{popMember(t), 0, stall},
	})
	greeted := make(chan error, 1)
	go func() {
		c, err := dialPop(front)
		if err == nil {
			_, err = c.cmd("QUIT")
			c.conn.Close()
		}
		greeted <- err
	}()
	<-picking // the session has read the ring and waits on a load read
	if err := d.Remove("m1"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-greeted; err != nil {
		t.Fatalf("a session routed to a member as it was removed: %v", err)
	}
	if st := d.Stats(); st.Admitted != 1 || st.Refused != 0 {
		t.Fatalf("director stats %+v: want 1 admitted, 0 refused", st)
	}
}

// sessionClient runs whole pop3 sessions against the front with one
// read buffer, so it adds next to nothing to what a session allocates.
type sessionClient struct {
	front *netsim.Network
	buf   []byte
}

func (sc *sessionClient) expect(c *netsim.Conn, want string) error {
	n := 0
	for !bytes.Contains(sc.buf[:n], []byte("\n")) {
		m, err := c.Read(sc.buf[n:])
		if err != nil {
			return err
		}
		n += m
	}
	if !bytes.HasPrefix(sc.buf[:n], []byte(want)) {
		return fmt.Errorf("got %q, want %q", sc.buf[:n], want)
	}
	return nil
}

func (sc *sessionClient) session() error {
	c, err := sc.front.Dial("pop3:110")
	if err != nil {
		return err
	}
	defer c.Close()
	if err := sc.expect(c, "+OK"); err != nil {
		return err
	}
	for _, x := range []struct{ req, want string }{
		{"USER alice\r\n", "+OK"},
		{"PASS sesame\r\n", "+OK logged in"},
		{"QUIT\r\n", "+OK bye"},
	} {
		if _, err := c.Write([]byte(x.req)); err != nil {
			return err
		}
		if err := sc.expect(c, x.want); err != nil {
			return err
		}
	}
	return nil
}

func sessionRig(tb testing.TB) *sessionClient {
	backends := make(map[string]cluster.StreamBackend)
	for i := 0; i < 3; i++ {
		backends[fmt.Sprintf("m%d", i)] = popMember(tb)
	}
	_, front := popCluster(tb, backends)
	sc := &sessionClient{front: front, buf: make([]byte, 512)}
	for i := 0; i < 20; i++ { // warm the pools
		if err := sc.session(); err != nil {
			tb.Fatal(err)
		}
	}
	return sc
}

// TestDirectorSessionAllocs guards what a session through the director
// allocates, the member's own work included: the director adds a leg
// and its session record, not a relay with its buffers.
func TestDirectorSessionAllocs(t *testing.T) {
	sc := sessionRig(t)
	const sessions = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		if err := sc.session(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / sessions
	t.Logf("%d bytes allocated per director session", per)
	if per >= 16<<10 {
		t.Fatalf("%d bytes allocated per director session, want under %d", per, 16<<10)
	}
}

// BenchmarkDirectorSession prices one whole pop3 session through a
// director over three members.
func BenchmarkDirectorSession(b *testing.B) {
	sc := sessionRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.session(); err != nil {
			b.Fatal(err)
		}
	}
}
