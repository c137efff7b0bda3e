package servetest_test

import (
	"fmt"
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

// The battery's self-test: a minimal echo application — greet, read one
// payload byte, stash it in the argument block (the planted residue),
// echo it back — run through the full conformance suite. This is the
// fixture that proves the harness itself is sound before the four real
// applications rely on it.
var (
	echoSchemaB = gateabi.NewSchema("echo")
	_           = gateabi.ConnID(echoSchemaB)
	_           = gateabi.FD(echoSchemaB)
	echoResidue = gateabi.U64(echoSchemaB, "residue") // the payload byte lands here
	_           = gateabi.Fixed(echoSchemaB, "pad", 40)
	echoSchema  = echoSchemaB.Seal()
)

// echoState is the per-connection app state. greeted must survive a
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

func newEcho(root *sthread.Sthread, slots int, probe servetest.Probe) (servetest.Runtime, error) {
	srv := &echoServer{}
	var err error
	srv.Runtime, err = serve.New(root, serve.App[echoState]{
		Name:   "echo",
		Slots:  slots,
		Schema: echoSchema,
		Worker: "worker",
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
				buf := make([]byte, 1)
				if _, err := w.Task.ReadFD(c.FD, buf); err != nil {
					return 0
				}
				echoResidue.Store(w, arg, uint64(buf[0])) // plant the residue
				if _, err := w.Task.WriteFD(c.FD, buf); err != nil {
					return 0
				}
				return 1
			},
		}},
	})
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// holdEcho dials and reads the greeting — the worker is then provably in
// flight, parked on the payload read.
func holdEcho(k *kernel.Kernel) (*netsim.Conn, error) {
	conn, err := k.Net.Dial("echo:7")
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		conn.Close()
		return nil, err
	}
	if buf[0] != '>' {
		conn.Close()
		return nil, fmt.Errorf("greeting = %q, want '>'", buf[0])
	}
	return conn, nil
}

func finishEcho(conn *netsim.Conn) error {
	defer conn.Close()
	if _, err := conn.Write([]byte{'S'}); err != nil {
		return err
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		return err
	}
	if buf[0] != 'S' {
		return fmt.Errorf("echoed %q, want 'S'", buf[0])
	}
	return nil
}

// TestEchoChaos: the bounded-duration chaos smoke — random Drain /
// Undrain / Resize / SetQueue against the echo app under continuous
// client load, asserting no task/tag leaks and a consistent final
// Snapshot.
func TestEchoChaos(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = 200 * time.Millisecond
	}
	servetest.Chaos(t, echoApp(), d)
}

func TestEchoConformance(t *testing.T) {
	servetest.Run(t, echoApp())
}

// TestEchoCluster: the cluster battery's self-test — two echo runtimes
// behind a director, one killed while it holds a session mid-protocol.
func TestEchoCluster(t *testing.T) {
	servetest.Cluster(t, echoApp())
}

func echoApp() servetest.App {
	return servetest.App{
		Name: "echo",
		Addr: "echo:7",
		New:  newEcho,
		Session: func(k *kernel.Kernel) ([]byte, error) {
			conn, err := holdEcho(k)
			if err != nil {
				return nil, err
			}
			if err := finishEcho(conn); err != nil {
				return nil, err
			}
			return []byte{'S'}, nil
		},
		Hold: func(k *kernel.Kernel) (*servetest.Held, error) {
			conn, err := holdEcho(k)
			if err != nil {
				return nil, err
			}
			return &servetest.Held{
				Finish:  func() error { return finishEcho(conn) },
				Abandon: func() error { return conn.Close() },
			}, nil
		},
		Schema: echoSchema,
	}
}
