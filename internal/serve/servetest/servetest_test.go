package servetest_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve"
	"wedge/internal/serve/servetest"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// The battery's self-test: a minimal echo application — greet, then echo
// every payload back, stashing its last byte in the argument block (the
// planted residue) — run through the full conformance suite over both
// transports. This is the fixture that proves the harness itself is sound
// before the real applications rely on it.
var (
	echoSchemaB = gateabi.NewSchema("echo")
	_           = gateabi.ConnID(echoSchemaB)
	_           = gateabi.FD(echoSchemaB)
	echoResidue = gateabi.U64(echoSchemaB, "residue") // the payload byte lands here
	_           = gateabi.Fixed(echoSchemaB, "pad", 40)
	echoSchema  = echoSchemaB.Seal()
)

// echoIdle is the echo runtime's idle window: short, because datagram
// sessions end only by expiry and the battery waits for every one, yet
// several times any hold the battery keeps between two exchanges.
const echoIdle = 30 * time.Millisecond

// echoState is the per-session app state. greeted must survive a
// cluster handoff — a resumed worker re-enters its invocation from the
// top, and greeting the client a second time would corrupt the
// transcript the director is relaying — so it rides in the handoff
// record via the Export/Import hooks, the same way the real servers
// carry their protocol position.
type echoState struct{ greeted bool }

// echoServer is the toy pooled application: a serve.App descriptor and
// nothing else, like the real servers.
type echoServer struct {
	*serve.Runtime[echoState]
}

func newEcho(root *sthread.Sthread, slots int, idle time.Duration, probe servetest.Probe) (servetest.Runtime, error) {
	srv := &echoServer{}
	var err error
	srv.Runtime, err = serve.New(root, serve.App[echoState]{
		Name:        "echo",
		Slots:       slots,
		Schema:      echoSchema,
		Worker:      "worker",
		IdleTimeout: idle,
		Export: func(c *serve.Conn[echoState]) []byte {
			if c.State.greeted {
				return []byte{1}
			}
			return nil
		},
		Import: func(c *serve.Conn[echoState], rec *serve.HandoffRecord) error {
			if len(rec.State) > 1 {
				return fmt.Errorf("echo: oversized handoff state (%d bytes)", len(rec.State))
			}
			c.State.greeted = len(rec.State) == 1 && rec.State[0] == 1
			return nil
		},
		Refuse: func([]byte, error) []byte { return []byte{'R'} },
		Gates: []gatepool.GateDef{{
			Name: "worker",
			Entry: func(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
				c := srv.Lookup(w, arg)
				if c == nil {
					return 0
				}
				if probe != nil {
					probe(w, arg)
				}
				if !c.State.greeted {
					if _, err := w.Task.WriteFD(c.FD, []byte{'>'}); err != nil {
						return 0
					}
					c.State.greeted = true
				}
				buf := make([]byte, 64)
				for {
					n, err := w.Task.ReadFD(c.FD, buf)
					if err != nil || n == 0 {
						return 1 // the client closed, or expiry or a handoff closed the session
					}
					echoResidue.Store(w, arg, uint64(buf[n-1])) // plant the residue
					if _, err := w.Task.WriteFD(c.FD, buf[:n]); err != nil {
						return 0
					}
				}
			},
		}},
	})
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// echoLeg is one echo client over either transport: one byte per
// exchange, a connection's bytes or one datagram each.
type echoLeg interface {
	send(b byte) error
	recv() (byte, error)
	io.Closer
}

type streamLeg struct{ c *netsim.Conn }

func (l streamLeg) send(b byte) error { _, err := l.c.Write([]byte{b}); return err }
func (l streamLeg) Close() error      { return l.c.Close() }
func (l streamLeg) recv() (byte, error) {
	buf := make([]byte, 1)
	_, err := io.ReadFull(l.c, buf)
	return buf[0], err
}

type datagramLeg struct {
	pc   *netsim.PacketConn
	addr string
}

func (l datagramLeg) send(b byte) error { _, err := l.pc.WriteTo([]byte{b}, l.addr); return err }
func (l datagramLeg) Close() error      { return l.pc.Close() }
func (l datagramLeg) recv() (byte, error) {
	buf := make([]byte, 64)
	n, _, err := l.pc.ReadFrom(buf)
	if err == nil && n != 1 {
		err = fmt.Errorf("datagram of %d bytes, want 1", n)
	}
	return buf[0], err
}

// exchange sends b and expects it echoed.
func exchange(l echoLeg, b byte) error {
	if err := l.send(b); err != nil {
		return err
	}
	got, err := l.recv()
	if err != nil {
		return err
	}
	if got != b {
		return fmt.Errorf("echoed %q, want %q", got, b)
	}
	return nil
}

// holdEcho opens a leg, says hello and reads the greeting and the echo —
// the worker is then provably in flight, parked on its next read. (On
// datagrams the hello is what opens the flow.)
func holdEcho(k *kernel.Kernel, tr servetest.Transport) (echoLeg, error) {
	var l echoLeg
	if tr == servetest.Datagram {
		pc, err := k.Net.DialPacket()
		if err != nil {
			return nil, err
		}
		l = datagramLeg{pc, "echo:7"}
	} else {
		c, err := k.Net.Dial("echo:7")
		if err != nil {
			return nil, err
		}
		l = streamLeg{c}
	}
	if err := l.send('h'); err != nil {
		l.Close()
		return nil, err
	}
	if g, err := l.recv(); err != nil || g != '>' {
		l.Close()
		return nil, fmt.Errorf("greeting %q, %v; want '>'", g, err)
	}
	if err := exchangeTail(l, 'h'); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// exchangeTail reads the echo of an already-sent byte.
func exchangeTail(l echoLeg, b byte) error {
	got, err := l.recv()
	if err != nil {
		return err
	}
	if got != b {
		return fmt.Errorf("echoed %q, want %q", got, b)
	}
	return nil
}

func finishEcho(l echoLeg) error {
	defer l.Close()
	return exchange(l, 'S')
}

// TestEchoChaos: the bounded-duration chaos smoke — random Drain /
// Undrain / Resize / SetQueue against the echo app under continuous
// client load, on both transports, asserting no task/tag leaks and a
// consistent final Snapshot.
func TestEchoChaos(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = 200 * time.Millisecond
	}
	servetest.Chaos(t, echoApp(servetest.Stream, echoIdle), d)
	t.Run("Datagram", func(t *testing.T) { servetest.Chaos(t, echoApp(servetest.Datagram, echoIdle), d) })
}

// TestEchoConformance runs the battery over streams, then over datagrams.
func TestEchoConformance(t *testing.T) {
	servetest.Run(t, echoApp(servetest.Stream, echoIdle))
	t.Run("Datagram", func(t *testing.T) { servetest.Run(t, echoApp(servetest.Datagram, echoIdle)) })
}

// echoClusterIdle is the datagram echo runtime's window under the
// cluster battery: a flow ends only by expiry, so the battery waits for
// earlier flows to expire before it parks the one it moves, and the
// parked flow, silent while the director moves it, must not expire
// meanwhile. Remove moves it in well under a millisecond; the window
// leaves a wide margin and still lets each run settle in about 0.3 s.
const echoClusterIdle = 100 * time.Millisecond

// TestEchoCluster: the cluster battery's self-test — two echo runtimes
// behind a director, one killed while it holds a session mid-protocol,
// over streams, then over datagrams. Streams run without idle expiry: a
// handoff keeps the held session silent for as long as the director
// takes.
func TestEchoCluster(t *testing.T) {
	servetest.Cluster(t, echoApp(servetest.Stream, 0))
	t.Run("Datagram", func(t *testing.T) { servetest.Cluster(t, echoApp(servetest.Datagram, echoClusterIdle)) })
}

// echoApp is the echo adapter for one transport; idle is the runtime's
// IdleTimeout (zero: none, which only streams allow).
func echoApp(tr servetest.Transport, idle time.Duration) servetest.App {
	return servetest.App{
		Name:      "echo",
		Addr:      "echo:7",
		Transport: tr,
		Idle:      idle,
		New: func(root *sthread.Sthread, slots int, probe servetest.Probe) (servetest.Runtime, error) {
			return newEcho(root, slots, idle, probe)
		},
		Session: func(k *kernel.Kernel) ([]byte, error) {
			l, err := holdEcho(k, tr)
			if err != nil {
				return nil, err
			}
			if err := finishEcho(l); err != nil {
				return nil, err
			}
			return []byte{'S'}, nil
		},
		Hold: func(k *kernel.Kernel) (*servetest.Held, error) {
			l, err := holdEcho(k, tr)
			if err != nil {
				return nil, err
			}
			return &servetest.Held{
				Finish:  func() error { return finishEcho(l) },
				Abandon: l.Close,
				Ping:    func() error { return exchange(l, 'a') },
			}, nil
		},
		Schema: echoSchema,
	}
}
