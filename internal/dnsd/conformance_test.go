package dnsd

import (
	"fmt"
	"testing"
	"time"

	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve/servetest"
	"wedge/internal/sthread"
)

// TestServeConformance runs the conformance battery over datagrams
// against the resolver. The residue window is the slot's value/signature
// area — principal A's record value and signed answer, which the pool
// must scrub before principal B's worker invocation can observe them.
// The short IdleTimeout is what the battery requires: every flow ends by
// a real wheel expiry.
func TestServeConformance(t *testing.T) {
	servetest.Run(t, resolverApp(t, 250*time.Millisecond))
}

// TestClusterConformance runs the cluster battery: two resolvers behind
// a director, the one owning a flow parked mid-FRAG removed, and the
// query finished at the survivor with the first half carried in the
// handoff record. The window is the single-runtime battery's: the parked
// flow moves in well under a millisecond.
func TestClusterConformance(t *testing.T) {
	servetest.Cluster(t, resolverApp(t, 250*time.Millisecond))
}

// resolverApp is the resolver's battery adapter, its flows expiring
// after idle.
func resolverApp(t *testing.T, idle time.Duration) servetest.App {
	key := testZoneKey(t)
	zone := append(testZone(), Record{Name: "secret.example", Value: "zone-secret-hunter2"})

	dialQuery := func(k *kernel.Kernel, name string) (*netsim.PacketConn, *Answer, error) {
		pc, err := k.Net.DialPacket()
		if err != nil {
			return nil, nil, err
		}
		a, err := Query(pc, "dns:53", name)
		if err != nil {
			pc.Close()
			return nil, nil, err
		}
		return pc, a, nil
	}

	// startFrag parks a flow's worker mid-reassembly: the first half of a
	// FRAG query sent and acked, the continuation pending.
	startFrag := func(pc *netsim.PacketConn) (*FragQuery, error) {
		return StartFrag(pc, "dns:53", "www.example", 4)
	}
	finishFrag := func(fq *FragQuery) error {
		a, err := fq.Finish()
		if err != nil {
			return err
		}
		if a.Status != StatusNoError {
			return fmt.Errorf("held query: status %d, want NOERROR", a.Status)
		}
		return a.Verify(&key.PublicKey)
	}

	return servetest.App{
		Name:      "dnsd",
		Addr:      "dns:53",
		Transport: servetest.Datagram,
		Idle:      idle,
		New: func(root *sthread.Sthread, slots int, probe servetest.Probe) (servetest.Runtime, error) {
			hooks := Hooks{}
			if probe != nil {
				hooks.Worker = func(w *sthread.Sthread, ctx *ConnContext) { probe(w, ctx.ArgAddr) }
			}
			return NewPooled(root, key, zone, Config{
				Slots:       slots,
				IdleTimeout: idle,
				Hooks:       hooks,
			})
		},
		Session: func(k *kernel.Kernel) ([]byte, error) {
			pc, a, err := dialQuery(k, "secret.example")
			if err != nil {
				return nil, err
			}
			defer pc.Close()
			if a.Status != StatusNoError {
				return nil, fmt.Errorf("status %d, want NOERROR", a.Status)
			}
			if err := a.Verify(&key.PublicKey); err != nil {
				return nil, err
			}
			return a.Value, nil // the record value resident in the slot
		},
		Hold: func(k *kernel.Kernel) (*servetest.Held, error) {
			pc, err := k.Net.DialPacket()
			if err != nil {
				return nil, err
			}
			fq, err := startFrag(pc)
			if err != nil {
				pc.Close()
				return nil, err
			}
			return &servetest.Held{
				Finish: func() error {
					defer pc.Close()
					return finishFrag(fq)
				},
				Abandon: func() error { return pc.Close() },
				// Complete the parked query and park the next one.
				Ping: func() error {
					if err := finishFrag(fq); err != nil {
						return err
					}
					fq, err = startFrag(pc)
					return err
				},
			}, nil
		},
		Schema: GateSchema(),
		// The zone blob's tag outlives the runtime.
		StaticTags: 1,
	}
}
