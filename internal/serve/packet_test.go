package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// The packet tests serve a datagram echo: the worker reads datagrams
// from its flow descriptor and writes each one back prefixed with '+',
// until expiry closes the flow (read fails → return 1, a clean end). It
// takes slowAnswer to answer "slow".
var (
	pktSchemaB = gateabi.NewSchema("pktecho")
	_          = gateabi.ConnID(pktSchemaB)
	_          = gateabi.FD(pktSchemaB)
	pktSchema  = pktSchemaB.Seal()
)

const slowAnswer = 40 * time.Millisecond

type pktRig struct {
	k  *kernel.Kernel
	rt *Runtime[int]
	pc *netsim.PacketConn
}

func startPacketEcho(t *testing.T, app App[int], drive func(r *pktRig)) {
	t.Helper()
	k := kernel.New()
	a := sthread.Boot(k)
	done := make(chan error, 1)
	ready := make(chan *pktRig, 1)
	quit := make(chan struct{})
	go func() {
		done <- a.Main(func(root *sthread.Sthread) {
			var rt *Runtime[int]
			app.Name = "pktecho"
			app.Schema = pktSchema
			app.Worker = "worker"
			app.Gates = []gatepool.GateDef{{
				Name: "worker",
				Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := rt.Lookup(w, arg)
					if c == nil {
						return 0
					}
					c.State++ // flows are per-principal state
					buf := make([]byte, 256)
					for {
						n, err := w.Task.ReadFD(c.FD, buf)
						if err != nil {
							return 1 // flow expired: clean end
						}
						if string(buf[:n]) == "slow" {
							time.Sleep(slowAnswer)
						}
						out := append([]byte{'+'}, buf[:n]...)
						if _, err := w.Task.WriteFD(c.FD, out); err != nil {
							return 0
						}
					}
				},
			}}
			var err error
			rt, err = New(root, app)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			pc, err := root.Task.ListenPacket("pkt:53")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			go rt.ServePackets(pc)
			ready <- &pktRig{k: k, rt: rt, pc: pc}
			<-quit
		})
	}()
	rig := <-ready
	if rig == nil {
		t.FailNow()
	}
	drive(rig)
	rig.pc.Close()
	if err := rig.rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(quit)
	if err := <-done; err != nil {
		t.Fatalf("main: %v", err)
	}
}

// echoOnce sends one datagram from cli and checks the echoed reply.
func echoOnce(t *testing.T, cli *netsim.PacketConn, msg string) {
	t.Helper()
	if _, err := cli.WriteTo([]byte(msg), "pkt:53"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, from, err := cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != "pkt:53" || string(buf[:n]) != "+"+msg {
		t.Fatalf("reply %q from %q, want %q from pkt:53", buf[:n], from, "+"+msg)
	}
}

// waitSnap polls the runtime snapshot until cond holds.
func waitSnap(t *testing.T, rt *Runtime[int], what string, cond func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := rt.Snapshot()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s; snapshot %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPacketFlowLifecycle: packets from one source share a flow (one
// admission, one worker invocation, per-flow state intact across
// packets); a silent flow expires, runs full teardown, and a later
// packet from the same source starts a fresh flow.
func TestPacketFlowLifecycle(t *testing.T) {
	startPacketEcho(t, App[int]{Slots: 2, IdleTimeout: 120 * time.Millisecond},
		func(rig *pktRig) {
			cli, err := rig.k.Net.DialPacket()
			if err != nil {
				t.Fatal(err)
			}
			echoOnce(t, cli, "one")
			echoOnce(t, cli, "two")
			echoOnce(t, cli, "three")

			s := rig.rt.Snapshot()
			if s.Admitted != 1 {
				t.Fatalf("Admitted = %d, want 1 (three packets, one flow)", s.Admitted)
			}
			if s.Flows != 1 || s.Packets != 3 {
				t.Fatalf("Flows = %d, Packets = %d, want 1, 3", s.Flows, s.Packets)
			}

			// Silence: the wheel expires the flow and the worker unwinds
			// as served (clean end). The session retires the admission
			// last, after the flow is gone, so wait for the whole unwind.
			s = waitSnap(t, rig.rt, "flow expiry", func(s Snapshot) bool {
				return s.Expired >= 1 && s.Flows == 0 && s.Inflight == 0
			})
			if s.Served != 1 {
				t.Fatalf("Served = %d, want 1 after expiry unwind", s.Served)
			}
			if s.Pool.Busy != 0 {
				t.Fatalf("Pool.Busy = %d after expiry, want 0 (lease released)", s.Pool.Busy)
			}

			// Same source again: fresh flow, fresh admission.
			echoOnce(t, cli, "back")
			s = rig.rt.Snapshot()
			if s.Admitted != 2 || s.Flows != 1 {
				t.Fatalf("Admitted = %d, Flows = %d after re-contact, want 2, 1", s.Admitted, s.Flows)
			}
		})
}

// TestPacketPrincipals: two sources get two concurrent flows.
func TestPacketPrincipals(t *testing.T) {
	startPacketEcho(t, App[int]{Slots: 2, IdleTimeout: 200 * time.Millisecond},
		func(rig *pktRig) {
			a, _ := rig.k.Net.DialPacket()
			b, _ := rig.k.Net.DialPacket()
			echoOnce(t, a, "from-a")
			echoOnce(t, b, "from-b")
			s := rig.rt.Snapshot()
			if s.Flows != 2 || s.Admitted != 2 {
				t.Fatalf("Flows = %d, Admitted = %d, want 2, 2", s.Flows, s.Admitted)
			}
			if s.Pool.Busy != 2 {
				t.Fatalf("Pool.Busy = %d, want 2 (one lease per live flow)", s.Pool.Busy)
			}
		})
}

// TestPacketRefuse: a draining runtime answers first-contact packets
// with the app's Refuse datagram instead of silence.
func TestPacketRefuse(t *testing.T) {
	app := App[int]{
		Slots:       2,
		IdleTimeout: 100 * time.Millisecond,
		Refuse: func(payload []byte, err error) []byte {
			if !errors.Is(err, ErrOverloaded) {
				return nil
			}
			return []byte("REFUSED")
		},
	}
	startPacketEcho(t, app, func(rig *pktRig) {
		go rig.rt.Drain()
		waitSnap(t, rig.rt, "draining state", func(s Snapshot) bool {
			return s.State == StateDraining
		})
		cli, _ := rig.k.Net.DialPacket()
		if _, err := cli.WriteTo([]byte("hello?"), "pkt:53"); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, _, err := cli.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "REFUSED" {
			t.Fatalf("reply %q, want REFUSED", buf[:n])
		}
		s := rig.rt.Snapshot()
		if s.Rejected != 1 {
			t.Fatalf("Rejected = %d, want 1", s.Rejected)
		}
		rig.rt.Undrain()
		echoOnce(t, cli, "again")
	})
}

// TestPacketDrainWaitsForExpiry: Drain does not complete while a live
// flow exists, and completes once the wheel expires it — the datagram
// analogue of "drain completes in-flight connections".
func TestPacketDrainWaitsForExpiry(t *testing.T) {
	startPacketEcho(t, App[int]{Slots: 2, IdleTimeout: 150 * time.Millisecond},
		func(rig *pktRig) {
			cli, _ := rig.k.Net.DialPacket()
			echoOnce(t, cli, "hold")
			drained := make(chan struct{})
			go func() {
				rig.rt.Drain()
				close(drained)
			}()
			select {
			case <-drained:
				t.Fatal("Drain completed with a live flow")
			case <-time.After(20 * time.Millisecond):
			}
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("Drain never completed after flow expiry")
			}
			s := rig.rt.Snapshot()
			if s.Expired != 1 || s.Inflight != 0 {
				t.Fatalf("Expired = %d, Inflight = %d after drain, want 1, 0", s.Expired, s.Inflight)
			}
			rig.rt.Undrain()
		})
}

// TestPacketExpiryRaceLosesNoDatagram is the expiry/delivery race
// regression test: a client that speaks again just as its flow's idle
// window closes must always get an answer. Each query lands 4–6 ms after
// the previous reply against a 4 ms window, so delivery races the wheel's
// expiry hundreds of times; a datagram must either reach the live flow
// (refreshing its stamp) or open a fresh one, never vanish into a flow
// that expiry is closing.
func TestPacketExpiryRaceLosesNoDatagram(t *testing.T) {
	const queries = 400
	startPacketEcho(t, App[int]{Slots: 2, IdleTimeout: 4 * time.Millisecond},
		func(rig *pktRig) {
			cli, err := rig.k.Net.DialPacket()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			replies := make(chan string, 1)
			go func() {
				buf := make([]byte, 64)
				for {
					n, _, err := cli.ReadFrom(buf)
					if err != nil {
						close(replies)
						return
					}
					replies <- string(buf[:n])
				}
			}()
			lost := 0
			for i := 0; i < queries; i++ {
				msg := fmt.Sprintf("q%d", i)
				if _, err := cli.WriteTo([]byte(msg), "pkt:53"); err != nil {
					t.Fatal(err)
				}
				select {
				case got := <-replies:
					if got != "+"+msg {
						t.Fatalf("query %d: reply %q, want %q", i, got, "+"+msg)
					}
				case <-time.After(time.Second):
					lost++
				}
				time.Sleep(4*time.Millisecond + time.Duration(i%3)*time.Millisecond)
			}
			if lost != 0 {
				t.Fatalf("%d of %d queries got no reply: a datagram raced its flow's expiry and was dropped",
					lost, queries)
			}
			s := waitSnap(t, rig.rt, "every flow to expire", func(s Snapshot) bool {
				return s.Flows == 0 && s.Inflight == 0
			})
			if s.Expired == 0 || s.Expired != s.Admitted || s.Served != s.Admitted {
				t.Fatalf("expired=%d served=%d admitted=%d, want every flow served and ended by expiry",
					s.Expired, s.Served, s.Admitted)
			}
		})
}

// TestPacketSlowAnswerIsNotIdle: a worker that takes several windows to
// answer a datagram is busy, not idle. Its flow must not expire under
// it, which would detach the flow's leg and lose the answer; it expires
// once the worker rests again.
func TestPacketSlowAnswerIsNotIdle(t *testing.T) {
	startPacketEcho(t, App[int]{Slots: 1, IdleTimeout: slowAnswer / 8},
		func(rig *pktRig) {
			cli, err := rig.k.Net.DialPacket()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			timeout := time.AfterFunc(5*time.Second, func() { cli.Close() })
			defer timeout.Stop()
			echoOnce(t, cli, "slow")
			s := waitSnap(t, rig.rt, "the flow to expire", func(s Snapshot) bool {
				return s.Flows == 0 && s.Inflight == 0
			})
			if s.Expired != 1 || s.Served != 1 || s.Admitted != 1 {
				t.Fatalf("expired=%d served=%d admitted=%d, want one flow served and expired",
					s.Expired, s.Served, s.Admitted)
			}
		})
}

// TestPacketNeedsIdleTimeout: a runtime without IdleTimeout could never
// expire a flow, so it opens none — the packet loop refuses to start, and
// a flow opened from outside, fresh or resumed, is refused rather than
// pinning a slot.
func TestPacketNeedsIdleTimeout(t *testing.T) {
	k := kernel.New()
	a := sthread.Boot(k)
	err := a.Main(func(root *sthread.Sthread) {
		var refused []error
		rt, err := New(root, App[int]{
			Name: "pktecho", Schema: pktSchema, Worker: "worker",
			Gates: []gatepool.GateDef{{Name: "worker",
				Entry: func(*sthread.Sthread, vm.Addr, vm.Addr) vm.Addr { return 1 }}},
			Refuse: func(_ []byte, err error) []byte {
				refused = append(refused, err)
				return nil
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer rt.Close()
		pc, err := root.Task.ListenPacket("pkt:53")
		if err != nil {
			t.Error(err)
			return
		}
		defer pc.Close()
		if err := rt.ServePackets(pc); err == nil {
			t.Error("ServePackets started on a runtime without IdleTimeout")
		}
		if _, err := rt.OpenFlow(pc.Splice("udp-x"), [][]byte{[]byte("hi")}, nil); err == nil {
			t.Error("OpenFlow opened a flow on a runtime without IdleTimeout")
		}
		if _, err := rt.OpenFlow(pc.Splice("udp-y"), nil, &HandoffRecord{}); err == nil {
			t.Error("OpenFlow resumed a flow on a runtime without IdleTimeout")
		}
		if s := rt.Snapshot(); s.Admitted != 0 || s.Flows != 0 || s.Pool.Busy != 0 {
			t.Errorf("admitted=%d flows=%d busy=%d, want no flow opened", s.Admitted, s.Flows, s.Pool.Busy)
		}
		if len(refused) != 1 {
			t.Errorf("Refuse called %d times, want 1", len(refused))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
