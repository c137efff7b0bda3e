// The acceptance test: a three-member cluster serving continuous pop3
// (stream) and dnsd (packet) load survives a rolling drain of every
// member in turn with zero client-visible errors. Sessions carry real
// mid-protocol state across the moves — authenticated pop3 uids,
// half-reassembled dnsd FRAG queries — and each drained runtime must
// come out empty: inflight zero, conn table zero, ledger balanced.
package cluster_test

import (
	"bufio"
	"crypto/rsa"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// The director drives runtimes through these interfaces; the two wedge
// apps must satisfy them by promotion alone.
var (
	_ cluster.StreamBackend = (*pop3.PooledServer)(nil)
	_ cluster.PacketBackend = (*dnsd.Resolver)(nil)
)

var (
	keyOnce sync.Once
	zoneKey *rsa.PrivateKey
)

func testZoneKey() *rsa.PrivateKey {
	keyOnce.Do(func() {
		k, err := minissl.GenerateServerKey()
		if err != nil {
			panic(err)
		}
		zoneKey = k
	})
	return zoneKey
}

func testZone() []dnsd.Record {
	return []dnsd.Record{
		{Name: "www.example", Value: "192.0.2.80"},
		{Name: "mail.example", Value: "192.0.2.25"},
	}
}

func testBoxes() []pop3.Mailbox {
	return []pop3.Mailbox{
		{User: "alice", Password: "sesame", UID: 1000,
			Messages: []string{"From: bob\n\nhi alice"}},
	}
}

// memberRig is one cluster member: a pop3 runtime and a dnsd runtime,
// each in its own kernel.
type memberRig struct {
	name string
	pop  *pop3.PooledServer
	dns  *dnsd.Resolver

	quit chan struct{}
	done []chan error
}

func startMemberRig(t *testing.T, name string) *memberRig {
	t.Helper()
	r := &memberRig{name: name, quit: make(chan struct{})}

	popReady := make(chan *pop3.PooledServer, 1)
	popDone := make(chan error, 1)
	go func() {
		k := kernel.New()
		app := sthread.Boot(k)
		popDone <- app.Main(func(root *sthread.Sthread) {
			srv, err := pop3.NewPooled(root, testBoxes(), 4, pop3.Hooks{})
			if err != nil {
				t.Error(err)
				close(popReady)
				return
			}
			popReady <- srv
			<-r.quit
			srv.Close()
		})
	}()

	dnsReady := make(chan *dnsd.Resolver, 1)
	dnsDone := make(chan error, 1)
	go func() {
		app := sthread.Boot(kernel.New())
		dnsDone <- app.Main(func(root *sthread.Sthread) {
			rt, err := dnsd.NewPooled(root, testZoneKey(), testZone(), dnsd.Config{
				Slots:       4,
				IdleTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Error(err)
				close(dnsReady)
				return
			}
			dnsReady <- rt
			<-r.quit
			rt.Close()
		})
	}()

	r.pop = <-popReady
	r.dns = <-dnsReady
	if r.pop == nil || r.dns == nil {
		t.FailNow()
	}
	r.done = []chan error{popDone, dnsDone}
	return r
}

func (r *memberRig) stop(t *testing.T) {
	close(r.quit)
	for _, ch := range r.done {
		if err := <-ch; err != nil {
			t.Errorf("member %s: %v", r.name, err)
		}
	}
}

// popCli is a minimal POP3 line client against the cluster front.
type popCli struct {
	conn *netsim.Conn
	r    *bufio.Reader
}

func dialPop(front *netsim.Network) (*popCli, error) {
	conn, err := front.Dial("pop3:110")
	if err != nil {
		return nil, err
	}
	c := &popCli{conn: conn, r: bufio.NewReader(conn)}
	greet, err := c.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(greet, "+OK") {
		conn.Close()
		return nil, fmt.Errorf("greeting %q: %v", greet, err)
	}
	return c, nil
}

func (c *popCli) cmd(line string) (string, error) {
	if _, err := c.conn.Write([]byte(line + "\r\n")); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\r\n"), nil
}

// body reads a multi-line RETR payload through the "." terminator.
func (c *popCli) body() (string, error) {
	var b strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		if strings.TrimRight(line, "\r\n") == "." {
			return b.String(), nil
		}
		b.WriteString(line)
	}
}

// TestClusterRollingDrain is the acceptance scenario from the top
// comment.
func TestClusterRollingDrain(t *testing.T) {
	names := []string{"m0", "m1", "m2"}
	rigs := make(map[string]*memberRig, len(names))
	for _, n := range names {
		rigs[n] = startMemberRig(t, n)
		defer rigs[n].stop(t)
	}

	d := cluster.New()
	addMember := func(n string) {
		t.Helper()
		r := rigs[n]
		if err := d.Add(cluster.Member{Name: n, Stream: r.pop, Packet: r.dns}); err != nil {
			t.Fatalf("add %s: %v", n, err)
		}
	}
	for _, n := range names {
		addMember(n)
	}

	front := netsim.New()
	l, err := front.Listen("pop3:110")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	fpc, err := front.ListenPacket("dns:53")
	if err != nil {
		t.Fatal(err)
	}
	go d.ServePackets(fpc)

	var (
		stop  = make(chan struct{})
		errMu sync.Mutex
		fails []string
		wg    sync.WaitGroup
	)
	record := func(format string, args ...any) {
		errMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		errMu.Unlock()
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Six pop3 clients, each one long-lived session: authenticate once,
	// then STAT/RETR until the drains are done. The authenticated uid must
	// survive every handoff — a post-drain -ERR is a lost session.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dialPop(front)
			if err != nil {
				record("pop3[%d] dial: %v", i, err)
				return
			}
			defer c.conn.Close()
			if resp, err := c.cmd("USER alice"); err != nil || !strings.HasPrefix(resp, "+OK") {
				record("pop3[%d] USER: %q %v", i, resp, err)
				return
			}
			if resp, err := c.cmd("PASS sesame"); err != nil || !strings.HasPrefix(resp, "+OK") {
				record("pop3[%d] PASS: %q %v", i, resp, err)
				return
			}
			for !stopped() {
				resp, err := c.cmd("STAT")
				if err != nil || resp != "+OK 1 messages" {
					record("pop3[%d] STAT: %q %v", i, resp, err)
					return
				}
				resp, err = c.cmd("RETR 1")
				if err != nil || !strings.HasPrefix(resp, "+OK") {
					record("pop3[%d] RETR: %q %v", i, resp, err)
					return
				}
				body, err := c.body()
				if err != nil || !strings.Contains(body, "hi alice") {
					record("pop3[%d] body: %q %v", i, body, err)
					return
				}
			}
			if resp, err := c.cmd("QUIT"); err != nil || !strings.HasPrefix(resp, "+OK") {
				record("pop3[%d] QUIT: %q %v", i, resp, err)
			}
		}(i)
	}

	// Three plain dnsd clients: every answer signed and correct.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := front.DialPacket()
			if err != nil {
				record("dns[%d] dial: %v", i, err)
				return
			}
			defer cli.Close()
			for !stopped() {
				a, err := dnsd.Query(cli, "dns:53", "www.example")
				if err != nil {
					record("dns[%d] query: %v", i, err)
					return
				}
				if a.Status != dnsd.StatusNoError || string(a.Value) != "192.0.2.80" {
					record("dns[%d] answer status=%d value=%q", i, a.Status, a.Value)
					return
				}
				if err := a.Verify(&testZoneKey().PublicKey); err != nil {
					record("dns[%d] signature: %v", i, err)
					return
				}
			}
		}(i)
	}

	// Two FRAG clients: park a worker mid-reassembly, dawdle, finish. A
	// drain landing inside the dawdle must move the half-built name with
	// the flow.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := front.DialPacket()
			if err != nil {
				record("frag[%d] dial: %v", i, err)
				return
			}
			defer cli.Close()
			for !stopped() {
				fq, err := dnsd.StartFrag(cli, "dns:53", "mail.example", 4)
				if err != nil {
					record("frag[%d] start: %v", i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
				a, err := fq.Finish()
				if err != nil {
					record("frag[%d] finish: %v", i, err)
					return
				}
				if a.Status != dnsd.StatusNoError || string(a.Value) != "192.0.2.25" {
					record("frag[%d] answer status=%d value=%q", i, a.Status, a.Value)
					return
				}
			}
		}(i)
	}

	// The rolling drain: every member leaves in turn under full load and
	// rejoins drained-and-reopened.
	for _, n := range names {
		time.Sleep(80 * time.Millisecond)
		if err := d.Remove(n); err != nil {
			t.Fatalf("remove %s: %v", n, err)
		}
		r := rigs[n]
		if s := r.pop.Snapshot(); s.Inflight != 0 || s.Conns.Entries != 0 {
			t.Errorf("drained %s pop3: inflight=%d conns=%d, want 0/0", n, s.Inflight, s.Conns.Entries)
		}
		if s := r.dns.Snapshot(); s.Inflight != 0 || s.Conns.Entries != 0 || s.Flows != 0 {
			t.Errorf("drained %s dnsd: inflight=%d conns=%d flows=%d, want 0/0/0",
				n, s.Inflight, s.Conns.Entries, s.Flows)
		}
		addMember(n)
	}
	time.Sleep(80 * time.Millisecond)

	close(stop)
	wg.Wait()

	errMu.Lock()
	for _, f := range fails {
		t.Error(f)
	}
	errMu.Unlock()

	st := d.Stats()
	// Every pop3 session outlives all three drains, so each was handed at
	// least once, and so was every dnsd flow (its client never goes quiet
	// for the 2 s window); nothing may have failed to find a home or been
	// refused.
	if st.Handoffs < 6 {
		t.Errorf("handoffs = %d, want >= 6", st.Handoffs)
	}
	var flowsHanded uint64
	for _, r := range rigs {
		flowsHanded += r.dns.Snapshot().Handed
	}
	if flowsHanded < 5 {
		t.Errorf("dnsd flows handed = %d, want >= 5", flowsHanded)
	}
	if st.HandoffFailed != 0 || st.Refused != 0 {
		t.Errorf("handoffFailed=%d refused=%d, want 0/0", st.HandoffFailed, st.Refused)
	}

	// Quiescence: pop3 sessions ended with QUIT; dnsd flows expire on the
	// idle wheel. Then every runtime's ledger must balance to zero.
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range names {
		r := rigs[n]
		for {
			ps, ds := r.pop.Snapshot(), r.dns.Snapshot()
			if ps.Inflight == 0 && ds.Inflight == 0 && ds.Flows == 0 &&
				ps.Conns.Entries == 0 && ds.Conns.Entries == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never quiesced: pop3 inflight=%d conns=%d; dnsd inflight=%d flows=%d conns=%d",
					n, ps.Inflight, ps.Conns.Entries, ds.Inflight, ds.Flows, ds.Conns.Entries)
			}
			time.Sleep(20 * time.Millisecond)
		}
		for _, s := range []struct {
			mode string
			snap func() (admitted, served, failed, handed uint64)
		}{
			{"pop3", func() (uint64, uint64, uint64, uint64) {
				s := r.pop.Snapshot()
				return s.Admitted, s.Served, s.Failed, s.Handed
			}},
			{"dnsd", func() (uint64, uint64, uint64, uint64) {
				s := r.dns.Snapshot()
				return s.Admitted, s.Served, s.Failed, s.Handed
			}},
		} {
			ad, sv, fl, hd := s.snap()
			if ad != sv+fl+hd {
				t.Errorf("%s %s ledger: admitted=%d served=%d failed=%d handed=%d",
					n, s.mode, ad, sv, fl, hd)
			}
		}
	}
}

// TestClusterSchemaMismatchRefused: a member whose gate schema hash
// disagrees with the cluster's cannot join — the typed error the ISSUE
// pins. (Runtime-level record refusal is pinned in internal/serve and
// the servetest battery; this is the director's own gate.)
func TestClusterSchemaMismatchRefused(t *testing.T) {
	a := startMemberRig(t, "a")
	defer a.stop(t)
	b := startMemberRig(t, "b")
	defer b.stop(t)

	d := cluster.New()
	if err := d.Add(cluster.Member{Name: "a", Stream: a.pop, Packet: a.dns}); err != nil {
		t.Fatal(err)
	}
	// b's stream backend reports a different schema hash via a shim.
	err := d.Add(cluster.Member{Name: "b", Stream: badHash{a.pop.SchemaHash() ^ 1, b.pop}, Packet: b.dns})
	if err == nil {
		t.Fatal("mismatched schema hash joined the cluster")
	}
	var sm *serve.SchemaMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("join error = %v, want *serve.SchemaMismatchError", err)
	}
	// The honest twin still joins.
	if err := d.Add(cluster.Member{Name: "b", Stream: b.pop, Packet: b.dns}); err != nil {
		t.Fatalf("matching member refused: %v", err)
	}
}

// badHash wraps a StreamBackend, lying about its schema hash — the
// director must believe the hash, not the type.
type badHash struct {
	h uint64
	cluster.StreamBackend
}

func (b badHash) SchemaHash() uint64 { return b.h }
