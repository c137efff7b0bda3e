package dnsd

import (
	"bytes"
	"crypto/rsa"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
)

// testKey is the zone-signing key shared by every test in the package —
// RSA keygen is the expensive part of the fixtures.
var (
	keyOnce sync.Once
	zoneKey *rsa.PrivateKey
)

func testZoneKey(t testing.TB) *rsa.PrivateKey {
	keyOnce.Do(func() {
		k, err := minissl.GenerateServerKey()
		if err != nil {
			panic(err)
		}
		zoneKey = k
	})
	return zoneKey
}

func testZone() []Record {
	return []Record{
		{Name: "www.example", Value: "192.0.2.80"},
		{Name: "mail.example", Value: "192.0.2.25"},
	}
}

type dnsRig struct {
	k  *kernel.Kernel
	rt *Resolver
}

// startResolver boots a kernel, builds the resolver, and runs the
// packet loop until drive returns.
func startResolver(t *testing.T, cfg Config, drive func(r *dnsRig)) {
	t.Helper()
	key := testZoneKey(t)
	k := kernel.New()
	app := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *dnsRig, 1)
	quit := make(chan struct{})
	var pc *netsim.PacketConn
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			rt, err := NewPooled(root, key, testZone(), cfg)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			pc, err = root.Task.ListenPacket("dns:53")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			go rt.ServePackets(pc)
			ready <- &dnsRig{k: k, rt: rt}
			<-quit
		})
	}()
	r := <-ready
	if r == nil {
		t.FailNow()
	}
	drive(r)
	pc.Close()
	if err := r.rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(quit)
	if err := <-done; err != nil {
		t.Fatalf("main: %v", err)
	}
}

// TestResolveSigned: a known name resolves with a verifying signature;
// an unknown name gets a signed denial; tampering breaks verification.
func TestResolveSigned(t *testing.T) {
	startResolver(t, Config{Slots: 2, IdleTimeout: 150 * time.Millisecond}, func(r *dnsRig) {
		cli, err := r.k.Net.DialPacket()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Query(cli, "dns:53", "www.example")
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != StatusNoError || string(a.Value) != "192.0.2.80" {
			t.Fatalf("answer status=%d value=%q, want NOERROR 192.0.2.80", a.Status, a.Value)
		}
		if err := a.Verify(&testZoneKey(t).PublicKey); err != nil {
			t.Fatalf("signature: %v", err)
		}

		nx, err := Query(cli, "dns:53", "nope.example")
		if err != nil {
			t.Fatal(err)
		}
		if nx.Status != StatusNXDomain || len(nx.Value) != 0 {
			t.Fatalf("answer status=%d value=%q, want signed NXDOMAIN", nx.Status, nx.Value)
		}
		if err := nx.Verify(&testZoneKey(t).PublicKey); err != nil {
			t.Fatalf("denial signature: %v", err)
		}

		// A forged value must not verify against the real signature, and
		// a denial cannot be replayed as a positive answer.
		forged := *a
		forged.Value = []byte("192.0.2.66")
		if err := forged.Verify(&testZoneKey(t).PublicKey); err == nil {
			t.Fatal("tampered value verified")
		}
		flipped := *nx
		flipped.Status = StatusNoError
		if err := flipped.Verify(&testZoneKey(t).PublicKey); err == nil {
			t.Fatal("status flip verified")
		}
	})
}

// TestFragQuery: a fragmented query parks the worker mid-invocation
// (ack received, no answer yet) and resolves once the continuation
// arrives.
func TestFragQuery(t *testing.T) {
	startResolver(t, Config{Slots: 2, IdleTimeout: 300 * time.Millisecond}, func(r *dnsRig) {
		cli, err := r.k.Net.DialPacket()
		if err != nil {
			t.Fatal(err)
		}
		fq, err := StartFrag(cli, "dns:53", "mail.example", 4)
		if err != nil {
			t.Fatal(err)
		}
		if s := r.rt.Snapshot(); s.Inflight != 1 || s.Pool.Busy != 1 {
			t.Fatalf("held flow: inflight=%d busy=%d, want 1/1", s.Inflight, s.Pool.Busy)
		}
		a, err := fq.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != StatusNoError || string(a.Value) != "192.0.2.25" {
			t.Fatalf("answer status=%d value=%q", a.Status, a.Value)
		}
		if err := a.Verify(&testZoneKey(t).PublicKey); err != nil {
			t.Fatalf("signature: %v", err)
		}
	})
}

// TestMalformedNeverReachesGate: malformed datagrams are answered with
// FORMERR and the resolve gate — the signing compartment — is never
// invoked for them.
func TestMalformedNeverReachesGate(t *testing.T) {
	var resolves atomic.Uint64
	cfg := Config{
		Slots:       2,
		IdleTimeout: 150 * time.Millisecond,
		Hooks:       Hooks{Resolve: func() { resolves.Add(1) }},
	}
	startResolver(t, cfg, func(r *dnsRig) {
		cli, err := r.k.Net.DialPacket()
		if err != nil {
			t.Fatal(err)
		}
		malformed := [][]byte{
			{},                              // empty datagram
			{'X', 0, 3, 'a', 'b', 'c'},      // wrong magic
			{'Q', 2, 3, 'a', 'b', 'c'},      // undefined flag bit
			{'Q', 0, 9, 'a'},                // length word past the datagram
			{'Q', 0, 1, 'a', 'b'},           // trailing bytes
			{'Q', 0, 0},                     // empty name
			bytes.Repeat([]byte{0xff}, 700), // binary garbage
		}
		buf := make([]byte, maxDatagram)
		for i, pkt := range malformed {
			if _, err := cli.WriteTo(pkt, "dns:53"); err != nil {
				t.Fatal(err)
			}
			n, _, err := cli.ReadFrom(buf)
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			a, err := parseAnswer(buf[:n])
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			if a.Status != StatusFormErr {
				t.Fatalf("datagram %d: status %d, want FORMERR", i, a.Status)
			}
		}
		if got := resolves.Load(); got != 0 {
			t.Fatalf("resolve gate invoked %d times on malformed input, want 0", got)
		}
		// The same flow still answers a well-formed query afterwards.
		a, err := Query(cli, "dns:53", "www.example")
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != StatusNoError {
			t.Fatalf("status %d after malformed batch, want NOERROR", a.Status)
		}
		if got := resolves.Load(); got != 1 {
			t.Fatalf("resolve gate invoked %d times, want exactly 1", got)
		}
	})
}

// TestMonolithic: the unpartitioned baseline speaks the same wire
// protocol — signed answers, signed denials, FRAG reassembly, FORMERR
// on junk — so a verifying client cannot tell the builds apart.
func TestMonolithic(t *testing.T) {
	key := testZoneKey(t)
	srv, err := NewMonolithic(key, testZone())
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New()
	pc, err := k.Net.ListenPacket("dns:53")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServePackets(pc) }()
	defer func() {
		pc.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	cli, err := k.Net.DialPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	a, err := Query(cli, "dns:53", "www.example")
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusNoError || string(a.Value) != "192.0.2.80" {
		t.Fatalf("answer status=%d value=%q", a.Status, a.Value)
	}
	if err := a.Verify(&key.PublicKey); err != nil {
		t.Fatalf("signature: %v", err)
	}

	fq, err := StartFrag(cli, "dns:53", "mail.example", 4)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := fq.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fa.Status != StatusNoError || string(fa.Value) != "192.0.2.25" {
		t.Fatalf("frag answer status=%d value=%q", fa.Status, fa.Value)
	}
	if err := fa.Verify(&key.PublicKey); err != nil {
		t.Fatalf("frag signature: %v", err)
	}

	// Junk draws FORMERR; an orphan continuation too.
	for _, pkt := range [][]byte{{'Q', 0, 9, 'a'}, {'C', 1, 'x'}} {
		if _, err := cli.WriteTo(pkt, "dns:53"); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, maxDatagram)
		n, _, err := cli.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := parseAnswer(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if fe.Status != StatusFormErr {
			t.Fatalf("junk %q: status %d, want FORMERR", pkt, fe.Status)
		}
	}
}
