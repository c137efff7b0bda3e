package main

import (
	"crypto/rsa"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

const (
	dnsAddr  = "dns:53"
	dnsSlots = 2
	// dnsIdle is the flow-expiry window. A dns-signed client queries
	// back to back, so its flow never idles this long while the run
	// lasts; after the client closes, the wheel retires the flow within
	// about this long and the ledger can be checked.
	dnsIdle = 2 * time.Second
)

// dnsEnv is one pooled resolver on its own kernel, serving a packet
// socket through its own packet loop.
type dnsEnv struct {
	in       *inputs
	t        *tracer
	k        *kernel.Kernel
	srv      *dnsd.Resolver
	pc       *netsim.PacketConn
	loopDone chan error
	stop     func() error
	clients  int
}

func newDNSEnv(in *inputs, t *tracer) (env, error) {
	e := &dnsEnv{in: in, t: t}
	var err error
	e.k, e.stop, err = boot(func(root *sthread.Sthread) (io.Closer, error) {
		srv, err := dnsd.NewPooled(root, in.key, in.zone, dnsd.Config{
			Slots: dnsSlots, IdleTimeout: dnsIdle, Hooks: t.dnsHooks(),
		})
		e.srv = srv
		return srv, err
	})
	if err != nil {
		return nil, fmt.Errorf("dnsd: %w", err)
	}
	if e.pc, err = e.k.Net.ListenPacket(dnsAddr); err != nil {
		e.stop()
		return nil, err
	}
	e.loopDone = make(chan error, 1)
	go func() { e.loopDone <- e.srv.ServePackets(e.pc) }()
	return e, nil
}

func (e *dnsEnv) counters() counters {
	var c counters
	c.addSnapshot(e.srv.Snapshot())
	return c
}

// settle waits for the clients' flows to expire once their sockets are
// closed, then checks the ledger: one flow per client for the whole run,
// each admitted once, retired by idle expiry, and served.
func (e *dnsEnv) settle() error {
	s, err := waitFor(e.srv.Snapshot, func(s serve.Snapshot) bool {
		return s.Flows == 0 && s.Inflight == 0
	})
	if err != nil {
		return fmt.Errorf("dnsd not quiet: flows=%d inflight=%d", s.Flows, s.Inflight)
	}
	if err := ledger(s); err != nil {
		return err
	}
	n := uint64(e.clients)
	if s.Admitted != n || s.Expired != n || s.Served != n {
		return fmt.Errorf("dnsd: %d clients, but %d flows admitted, %d expired, %d served",
			n, s.Admitted, s.Expired, s.Served)
	}
	return nil
}

func (e *dnsEnv) close() error {
	e.pc.Close()
	err := <-e.loopDone
	if serr := e.stop(); err == nil {
		err = serr
	}
	return err
}

// dnsClient is one returning principal: a single packet socket whose
// flow stays live for the whole run. Every op is one query for a seeded
// name.
type dnsClient struct {
	e    *dnsEnv
	rng  *rand.Rand
	pc   *netsim.PacketConn
	pub  *rsa.PublicKey
	name string
	want *dnsd.Record
	ans  *dnsd.Answer
}

func (e *dnsEnv) newClient() (*dnsClient, error) {
	pc, err := e.k.Net.DialPacket()
	if err != nil {
		return nil, err
	}
	e.clients++
	return &dnsClient{e: e, rng: e.in.clientRNG(), pc: pc, pub: &e.in.key.PublicKey}, nil
}

func (c *dnsClient) exchange() error {
	c.name, c.want = c.e.in.pickName(c.rng)
	t := c.e.t
	sent := t.stamp()
	a, err := dnsd.Query(c.pc, dnsAddr, c.name)
	if err != nil {
		return err
	}
	c.ans = a
	if t != nil {
		answered, gate := now(), t.resolveAt.Load()
		t.spans[spQueryToGate].add(gate - sent)
		t.spans[spGateToAnswer].add(answered - gate)
	}
	return nil
}

// verify checks the answer against the zone: the name echoed, NOERROR
// with the record's value or NXDOMAIN with none, and a valid signature.
func (c *dnsClient) verify() error {
	a := c.ans
	status, value := dnsd.StatusNXDomain, ""
	if c.want != nil {
		status, value = dnsd.StatusNoError, c.want.Value
	}
	if a.Status != status || string(a.Name) != c.name || string(a.Value) != value {
		return fmt.Errorf("dns %s: got status %d value %q, want status %d value %q",
			c.name, a.Status, a.Value, status, value)
	}
	return a.Verify(c.pub)
}

func (c *dnsClient) close() error { return c.pc.Close() }
