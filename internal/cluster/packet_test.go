// Datagram flows on legs: a peer that comes back after other traffic,
// director flows that end with the member's, moving a silent flow more
// than once, a datagram sent while its flow is paused, and what one flow
// costs the director.
package cluster_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// dnsMember starts one dnsd runtime with two slots in its own kernel,
// its flows expiring after idle, stopped at cleanup.
func dnsMember(tb testing.TB, idle time.Duration) *dnsd.Resolver {
	return dnsMemberSlots(tb, 2, idle)
}

func dnsMemberSlots(tb testing.TB, slots int, idle time.Duration) *dnsd.Resolver {
	tb.Helper()
	ready := make(chan *dnsd.Resolver, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		app := sthread.Boot(kernel.New())
		done <- app.Main(func(root *sthread.Sthread) {
			rt, err := dnsd.NewPooled(root, testZoneKey(), testZone(), dnsd.Config{
				Slots: slots, IdleTimeout: idle,
			})
			if err != nil {
				tb.Error(err)
				close(ready)
				return
			}
			ready <- rt
			<-quit
			rt.Close()
		})
	}()
	rt := <-ready
	if rt == nil {
		tb.FailNow()
	}
	tb.Cleanup(func() {
		close(quit)
		if err := <-done; err != nil {
			tb.Errorf("dnsd member: %v", err)
		}
	})
	return rt
}

// dnsMembers starts n dnsd members named m0, m1, ..., each with slots
// slots (a flow holds its slot's ring for its whole life).
func dnsMembers(tb testing.TB, n, slots int, idle time.Duration) map[string]*dnsd.Resolver {
	members := make(map[string]*dnsd.Resolver, n)
	for i := 0; i < n; i++ {
		members[fmt.Sprintf("m%d", i)] = dnsMemberSlots(tb, slots, idle)
	}
	return members
}

// dnsCluster puts a director over the named backends and serves it on
// the front socket "dns:53". The returned stop, also run at cleanup,
// closes the socket and waits for the director's flows to end.
func dnsCluster[B cluster.PacketBackend](tb testing.TB, backends map[string]B) (*cluster.Director, *netsim.Network, func()) {
	tb.Helper()
	d := cluster.New()
	for name, b := range backends {
		if err := d.Add(cluster.Member{Name: name, Packet: b}); err != nil {
			tb.Fatal(err)
		}
	}
	front := netsim.New()
	fpc, err := front.ListenPacket("dns:53")
	if err != nil {
		tb.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		d.ServePackets(fpc)
		close(served)
	}()
	stop := func() {
		fpc.Close()
		<-served
	}
	tb.Cleanup(stop)
	return d, front, stop
}

// bounded runs one client exchange on pc and fails tb if it takes more
// than five seconds: an unanswered datagram would block it for good.
func bounded[R any](tb testing.TB, pc *netsim.PacketConn, what string, exchange func() (R, error)) R {
	tb.Helper()
	timeout := time.AfterFunc(5*time.Second, func() { pc.Close() })
	defer timeout.Stop()
	r, err := exchange()
	if err != nil {
		tb.Fatalf("%s: %v (unanswered?)", what, err)
	}
	return r
}

// resolve queries name on pc and checks the signed answer.
func resolve(tb testing.TB, pc *netsim.PacketConn, name, want string) {
	tb.Helper()
	a := bounded(tb, pc, "query "+name, func() (*dnsd.Answer, error) {
		return dnsd.Query(pc, "dns:53", name)
	})
	checkAnswer(tb, a, want)
}

func checkAnswer(tb testing.TB, a *dnsd.Answer, want string) {
	tb.Helper()
	if a.Status != dnsd.StatusNoError || string(a.Value) != want {
		tb.Fatalf("answer status=%d value=%q, want NOERROR %q", a.Status, a.Value, want)
	}
	if err := a.Verify(&testZoneKey().PublicKey); err != nil {
		tb.Fatalf("answer signature: %v", err)
	}
}

func dialPacket(tb testing.TB, front *netsim.Network) *netsim.PacketConn {
	tb.Helper()
	pc, err := front.DialPacket()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pc.Close() })
	return pc
}

func waitUntil(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReturningPeerAnswered: a peer that goes quiet mid-query while
// another peer sends hundreds of datagrams is answered when it comes
// back, inside its flow's window and after it. A director that ran an
// idle clock of its own could sweep the flow while the member's flow
// lived on, and the member's replies then had nowhere to go.
func TestReturningPeerAnswered(t *testing.T) {
	const idle = time.Second
	rt := dnsMember(t, idle)
	_, front, _ := dnsCluster(t, map[string]*dnsd.Resolver{"m0": rt})
	a := dialPacket(t, front)
	resolve(t, a, "www.example", "192.0.2.80")
	fq := bounded(t, a, "FRAG half", func() (*dnsd.FragQuery, error) {
		return dnsd.StartFrag(a, "dns:53", "mail.example", 4)
	})
	quiet := time.Now()

	// Another peer's traffic: malformed queries, answered FORMERR
	// without a signature, so 300 of them cost little.
	b := dialPacket(t, front)
	buf := make([]byte, 2048)
	for i := 0; i < 300; i++ {
		bounded(t, b, "malformed query", func() (int, error) {
			if _, err := b.WriteTo([]byte{'x'}, "dns:53"); err != nil {
				return 0, err
			}
			n, _, err := b.ReadFrom(buf)
			return n, err
		})
	}

	// Back inside the window: the pending half completes, and a fresh
	// query on the same flow is answered.
	ans := bounded(t, a, "FRAG continuation", fq.Finish)
	if since := time.Since(quiet); since >= idle {
		t.Skipf("the quiet spell took %v, past the %v window", since, idle)
	}
	checkAnswer(t, ans, "192.0.2.25")
	resolve(t, a, "www.example", "192.0.2.80")

	// After the window: the flow has expired at the member, and the
	// peer's next query opens a new one.
	expired := rt.Snapshot().Expired
	waitUntil(t, "the peer's flow to expire", func() bool {
		s := rt.Snapshot()
		return s.Expired > expired && s.Flows == 0
	})
	resolve(t, a, "mail.example", "192.0.2.25")
}

// TestDirectorFlowsEndWithMemberFlows: a director flow lives exactly as
// long as its member flow. Once the members' flows have expired the
// director holds none, and no goroutine is left behind — with the front
// socket open, and again after it has closed under live flows.
func TestDirectorFlowsEndWithMemberFlows(t *testing.T) {
	members := dnsMembers(t, 2, 2, 50*time.Millisecond)
	d, front, stop := dnsCluster(t, members)
	baseline := runtime.NumGoroutine()
	settled := func(when string, goroutines int) {
		t.Helper()
		waitUntil(t, "the members' flows to expire "+when, func() bool {
			for _, m := range members {
				if s := m.Snapshot(); s.Flows != 0 || s.Inflight != 0 {
					return false
				}
			}
			return true
		})
		waitUntil(t, "the director's flows to end "+when, func() bool {
			return d.Stats().Flows == 0 && runtime.NumGoroutine() <= goroutines
		})
	}

	for i := 0; i < 40; i++ {
		pc := dialPacket(t, front)
		resolve(t, pc, "www.example", "192.0.2.80")
		pc.Close()
	}
	settled("with the front socket open", baseline)

	for i := 0; i < 20; i++ {
		resolve(t, dialPacket(t, front), "www.example", "192.0.2.80")
	}
	if n := d.Stats().Flows; n == 0 {
		t.Fatal("no live director flows before the front socket closed")
	}
	stop()
	settled("after the front socket closed", baseline-1) // the front loop is gone too
	if st := d.Stats(); st.Admitted < 60 || st.Refused != 0 {
		t.Fatalf("director stats %+v: want >= 60 admitted, 0 refused", st)
	}
}

// exportHookP runs before a member's flow export, that is, while the
// director holds the flow's datagrams back.
type exportHookP struct {
	cluster.PacketBackend
	before func()
}

func (h exportHookP) HandoffPrincipal(principal string) (*serve.HandoffRecord, error) {
	h.before()
	return h.PacketBackend.HandoffPrincipal(principal)
}

// TestSilentFlowMovesTwice: two back-to-back Removes move one flow, silent
// with a FRAG half pending, twice, and its query completes at the third
// member.
func TestSilentFlowMovesTwice(t *testing.T) {
	members := dnsMembers(t, 3, 2, time.Second)
	d, front, _ := dnsCluster(t, members)
	pc := dialPacket(t, front)
	fq := bounded(t, pc, "FRAG half", func() (*dnsd.FragQuery, error) {
		return dnsd.StartFrag(pc, "dns:53", "mail.example", 4)
	})

	for i := 0; i < 2; i++ {
		from := owner(t, members)
		if err := d.Remove(from); err != nil {
			t.Fatalf("remove %s: %v", from, err)
		}
		if s := members[from].Snapshot(); s.Handed != 1 || s.Inflight != 0 || s.Flows != 0 {
			t.Fatalf("removed %s: handed=%d inflight=%d flows=%d, want 1/0/0",
				from, s.Handed, s.Inflight, s.Flows)
		}
		delete(members, from)
	}
	if st := d.Stats(); st.Handoffs != 2 || st.HandoffFailed != 0 || st.Flows != 1 {
		t.Fatalf("director stats %+v: want 2 handoffs, 0 failed, 1 flow", st)
	}
	checkAnswer(t, bounded(t, pc, "FRAG continuation after two moves", fq.Finish), "192.0.2.25")
	resolve(t, pc, "www.example", "192.0.2.80")
}

// lateReturn is a packet member with hooks: exporting runs before each
// export, while the director holds the flow back, and returned runs as
// each serving call returns to the director.
type lateReturn struct {
	cluster.PacketBackend
	exporting func()
	returned  func(error)
}

func (b lateReturn) HandoffPrincipal(principal string) (*serve.HandoffRecord, error) {
	b.exporting()
	return b.PacketBackend.HandoffPrincipal(principal)
}

func (b lateReturn) OpenFlow(leg *netsim.PacketLeg, queued [][]byte, rec *serve.HandoffRecord) (func() error, error) {
	run, err := b.PacketBackend.OpenFlow(leg, queued, rec)
	if err != nil {
		return nil, err
	}
	return func() error {
		err := run()
		b.returned(err)
		return err
	}, nil
}

// TestFlowMovedAgainBeforeItsCallReturns: a flow's first serving call
// returns to the director only after a second Remove has begun moving
// the flow again. The director must still start the flow at its second
// home, which the second move waits for, and the query finishes at the
// third.
func TestFlowMovedAgainBeforeItsCallReturns(t *testing.T) {
	members := dnsMembers(t, 3, 2, time.Second)
	release, moving := make(chan struct{}), make(chan struct{})
	var exports atomic.Int32
	var once sync.Once
	backends := make(map[string]cluster.PacketBackend)
	for name, m := range members {
		backends[name] = lateReturn{m,
			func() {
				if exports.Add(1) == 2 {
					close(moving)
				}
			},
			func(err error) {
				if errors.Is(err, serve.ErrHandedOff) {
					once.Do(func() { <-release })
				}
			},
		}
	}
	d, front, _ := dnsCluster(t, backends)
	pc := dialPacket(t, front)
	fq := bounded(t, pc, "FRAG half", func() (*dnsd.FragQuery, error) {
		return dnsd.StartFrag(pc, "dns:53", "mail.example", 4)
	})

	first := owner(t, members)
	if err := d.Remove(first); err != nil { // the first call now waits for release
		t.Fatal(err)
	}
	delete(members, first)
	removed := make(chan error, 1)
	go func() { removed <- d.Remove(owner(t, members)) }()
	<-moving // the second export has begun, and waits for the flow's worker
	close(release)
	select {
	case err := <-removed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second move never finished: the flow was not started at its second home")
	}
	if st := d.Stats(); st.Handoffs != 2 || st.HandoffFailed != 0 {
		t.Fatalf("director stats %+v: want 2 handoffs, 0 failed", st)
	}
	checkAnswer(t, bounded(t, pc, "FRAG continuation after two moves", fq.Finish), "192.0.2.25")
}

// TestDatagramWhilePaused: a datagram the client sends while its flow is
// paused for a handoff waits in the director and is answered exactly
// once, at the new home.
func TestDatagramWhilePaused(t *testing.T) {
	members := dnsMembers(t, 2, 2, time.Second)
	var pc, fence *netsim.PacketConn
	sent := false
	send := func() {
		// The continuation of the FRAG query parked below.
		c := append([]byte{'C', 8}, ".example"...)
		if _, err := pc.WriteTo(c, "dns:53"); err != nil {
			t.Errorf("continuation while paused: %v", err)
		}
		// The front loop reads in order, so an answer to another peer
		// sent after it proves the continuation is in the pause queue.
		resolve(t, fence, "www.example", "192.0.2.80")
		sent = true
	}
	backends := make(map[string]cluster.PacketBackend)
	for name, m := range members {
		backends[name] = exportHookP{m, send}
	}
	d, front, _ := dnsCluster(t, backends)
	pc, fence = dialPacket(t, front), dialPacket(t, front)
	bounded(t, pc, "FRAG half", func() (*dnsd.FragQuery, error) {
		return dnsd.StartFrag(pc, "dns:53", "mail.example", 4)
	})

	from := owner(t, members)
	home := "m0"
	if from == "m0" {
		home = "m1"
	}
	before := members[from].Snapshot().Packets
	if err := d.Remove(from); err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("the flow was never exported")
	}
	if s := members[from].Snapshot(); s.Handed != 1 || s.Packets != before {
		t.Fatalf("old home handed=%d packets %d -> %d, want 1 handed and no datagram after the pause",
			s.Handed, before, s.Packets)
	}

	// One answer to the continuation, then the next query's: a second
	// answer to the continuation would stand where that one belongs.
	checkAnswer(t, bounded(t, pc, "answer to the held continuation", func() (*dnsd.Answer, error) {
		return readAnswer(pc)
	}), "192.0.2.25")
	resolve(t, pc, "www.example", "192.0.2.80")
	if s := members[home].Snapshot(); s.Handed != 0 || s.Flows != 2 {
		t.Fatalf("new home handed=%d flows=%d, want the moved flow and the fence's live there",
			s.Handed, s.Flows)
	}
}

// readAnswer reads and parses one answer datagram:
// 'R' status nlen name vlen(2 LE) value slen(2 LE) sig.
func readAnswer(pc *netsim.PacketConn) (*dnsd.Answer, error) {
	buf := make([]byte, 2048)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		return nil, err
	}
	p := buf[:n]
	field := func(size int) []byte {
		if len(p) < size {
			err = fmt.Errorf("answer truncated: %q", buf[:n])
			return nil
		}
		f := p[:size]
		p = p[size:]
		return f
	}
	hdr := field(3)
	if err != nil || hdr[0] != 'R' {
		return nil, fmt.Errorf("not an answer: %q", buf[:n])
	}
	a := &dnsd.Answer{Status: hdr[1], Name: field(int(hdr[2]))}
	if l := field(2); err == nil {
		a.Value = field(int(l[0]) | int(l[1])<<8)
	}
	if l := field(2); err == nil {
		a.Sig = field(int(l[0]) | int(l[1])<<8)
	}
	return a, err
}

// TestDirectorFlowCost guards what a live flow holds in the director: a
// routing record and the goroutine its member's serving call runs on,
// not a socket and a relay goroutine with a buffer on its stack. It
// counts goroutines and stack in use before the flows open and while
// they live: TotalAlloc would miss a buffer that sits on a goroutine
// stack. The stack figure also holds the first growth of the slot
// sthreads the flows run on (about 11 KiB a flow in all, 17 KiB under
// the race detector); a relay goroutine with a 64 KiB buffer would add
// over 64 KiB.
func TestDirectorFlowCost(t *testing.T) {
	const flows = 24
	d, front, _ := dnsCluster(t, dnsMembers(t, 3, 16, 3*time.Second))
	sample := func() (int, int64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), int64(ms.StackInuse)
	}
	g0, stack0 := sample()
	for i := 0; i < flows; i++ {
		resolve(t, dialPacket(t, front), "www.example", "192.0.2.80")
	}
	g1, stack1 := sample()
	if live := d.Stats().Flows; live != flows {
		t.Fatalf("%d live director flows, want %d", live, flows)
	}
	perG := float64(g1-g0) / flows
	perStack := (stack1 - stack0) / flows
	t.Logf("per live flow: %.2f goroutines, %d bytes of stack", perG, perStack)
	if perG > 1.1 {
		t.Errorf("%.2f goroutines per live director flow, want at most 1", perG)
	}
	if perStack > 32<<10 {
		t.Errorf("%d bytes of goroutine stack per live director flow, want under %d", perStack, 32<<10)
	}
}

// BenchmarkDirectorFlow prices one fresh-peer dnsd query through a
// director over three members: the flow's open, its signed answer and
// its record; the flow then expires on its member's wheel.
func BenchmarkDirectorFlow(b *testing.B) {
	_, front, _ := dnsCluster(b, dnsMembers(b, 3, 4, 20*time.Millisecond))
	query := func() {
		pc, err := front.DialPacket()
		if err != nil {
			b.Fatal(err)
		}
		a, err := dnsd.Query(pc, "dns:53", "www.example")
		pc.Close()
		if err != nil || a.Status != dnsd.StatusNoError {
			b.Fatalf("query: %v", err)
		}
	}
	for i := 0; i < 20; i++ { // warm the pools
		query()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}
