// The cluster battery: the conformance suite for live session handoff.
// Two runtimes of the application sit behind a cluster.Director, over
// the application's transport; the battery kills (removes and drains)
// the one that owns a session parked mid-protocol and requires that the
// client finishes the session at its new home without ever seeing an
// error. The same App adapter the single-runtime battery uses drives it
// — an application opts in with one extra test line.
package servetest

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"wedge/internal/cluster"
	"wedge/internal/kernel"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// Cluster runs the cluster battery against one application:
//
//   - HandoffMidProtocol: a runtime is removed while it owns a held
//     session. The session completes at the surviving runtime, the dead
//     runtime retires it as Handed and leaks neither tasks nor tags, no
//     worker invocation anywhere ever observes an earlier principal's
//     secret (the imported block image must be as contained as any
//     other session's), Admitted == Served + Failed + Handed balances
//     on both runtimes, and the director's records end with the
//     sessions and flows they route.
//   - SchemaMismatchRefused: a member whose schema hash disagrees with
//     the cluster's is refused with the typed *serve.SchemaMismatchError
//     before it can ever exchange a session.
//
// The application's runtime must expose the handoff surface for its
// transport (cluster.StreamBackend or cluster.PacketBackend — both
// satisfied by embedding *serve.Runtime[T]). A datagram flow ends only
// by expiry, so a datagram application sets Idle: the battery waits for
// the flows of earlier sessions to expire before it parks the one it
// moves, and the window must be wide enough that the parked flow cannot
// expire while Remove moves it.
func Cluster(t *testing.T, a App) {
	t.Run("HandoffMidProtocol", a.clusterHandoff)
	t.Run("SchemaMismatchRefused", a.clusterSchemaMismatch)
}

// start2 boots two independent systems serving the same application —
// two kernels, two runtimes, one probe wired into both.
func (a App) start2(t *testing.T, slots int, probe Probe, drive func(r0, r1 *rig)) {
	a.start(t, slots, probe, func(r0 *rig) {
		a.start(t, slots, probe, func(r1 *rig) {
			drive(r0, r1)
		})
	})
}

// member declares the rig's runtime as a cluster member over the
// application's transport, asserting it exposes the handoff surface the
// director drives. skew makes it report a schema hash the rest of the
// cluster does not share — the stand-in for a member built from a
// different schema revision.
func (a App) member(t *testing.T, name string, r *rig, skew bool) cluster.Member {
	t.Helper()
	sb, sok := r.rt.(cluster.StreamBackend)
	pb, pok := r.rt.(cluster.PacketBackend)
	switch {
	case a.Transport == Datagram && pok:
		if skew {
			pb = skewedPacket{pb}
		}
		return cluster.Member{Name: name, Packet: pb}
	case a.Transport == Stream && sok:
		if skew {
			sb = skewedStream{sb}
		}
		return cluster.Member{Name: name, Stream: sb}
	}
	t.Fatalf("%T does not expose the %s handoff surface (cluster.StreamBackend, cluster.PacketBackend); "+
		"embed *serve.Runtime[T] or do not opt into the cluster battery", r.rt, a.Transport)
	return cluster.Member{}
}

type skewedStream struct{ cluster.StreamBackend }

func (s skewedStream) SchemaHash() uint64 { return s.StreamBackend.SchemaHash() ^ 1 }

type skewedPacket struct{ cluster.PacketBackend }

func (s skewedPacket) SchemaHash() uint64 { return s.PacketBackend.SchemaHash() ^ 1 }

// serveFront serves d at the application's address on the front
// kernel's network, over its transport. stop closes the front endpoint
// and waits for the serve loop, which returns once every session or
// flow it served has ended — a flow on its runtime's wheel.
func (a App) serveFront(t *testing.T, d *cluster.Director, front *kernel.Kernel) (stop func()) {
	t.Helper()
	ep, err := a.Transport.listen(front.Net, a.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		a.Transport.serve(d, ep)
		close(served)
	}()
	return func() {
		ep.Close()
		<-served
	}
}

func (a App) clusterHandoff(t *testing.T) {
	// The probe watches every worker invocation on both runtimes. Unlike
	// the single-runtime residue battery it cannot demand an all-zero
	// block — a resumed session legitimately starts from its imported
	// image — so the invariant is containment: no invocation may ever
	// start with bytes an *earlier, different* principal pushed through
	// a block. Each observation records how many secrets existed when it
	// was taken, so a session can never be accused of leaking its own.
	argSize := a.Schema.Size()
	type observation struct {
		buf      []byte
		nsecrets int
	}
	var mu sync.Mutex
	var secrets [][]byte
	var probes []observation
	probe := func(s *sthread.Sthread, arg vm.Addr) {
		buf := make([]byte, argSize+a.Schema.ProbeWindow())
		s.Read(arg, buf)
		mu.Lock()
		probes = append(probes, observation{buf, len(secrets)})
		mu.Unlock()
	}

	a.start2(t, 2, probe, func(r0, r1 *rig) {
		d := cluster.New()
		if err := d.Add(a.member(t, "m0", r0, false)); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(a.member(t, "m1", r1, false)); err != nil {
			t.Fatal(err)
		}

		// The front door: a bare kernel whose network hosts the
		// director's listener or socket. Clients reach it exactly as they
		// would a single runtime — the cluster is invisible from outside.
		front := kernel.New()
		stop := a.serveFront(t, d, front)

		session := func(what string) {
			t.Helper()
			secret, err := a.Session(front)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(secret) > 0 {
				mu.Lock()
				secrets = append(secrets, secret)
				mu.Unlock()
			}
		}
		session("first session before the kill") // plants a secret somewhere
		session("second session before the kill")

		// The client finishes before its worker invocation unwinds, and a
		// datagram flow lingers until its window closes; wait for both, so
		// the one runtime found in flight below owns the held session and
		// not an earlier one.
		rigs := map[string]*rig{"m0": r0, "m1": r1}
		waitFor(t, "the earlier sessions to unwind", func() bool {
			return r0.rt.Snapshot().Inflight == 0 && r1.rt.Snapshot().Inflight == 0
		})

		// Park a session mid-protocol, find the runtime that owns it,
		// and kill that runtime. Hold returns with a server response in
		// hand, so the worker invocation is provably in flight.
		held, err := a.Hold(front)
		if err != nil {
			t.Fatal(err)
		}
		var deadName string
		waitFor(t, "the held session to dispatch", func() bool {
			for name, r := range rigs {
				if r.rt.Snapshot().Inflight > 0 {
					deadName = name
					return true
				}
			}
			return false
		})
		dead := rigs[deadName]
		var home *rig
		for name, r := range rigs {
			if name != deadName {
				home = r
			}
		}
		if err := d.Remove(deadName); err != nil {
			t.Fatalf("remove %s: %v", deadName, err)
		}

		// Remove has returned: the held session was exported, re-admitted
		// at the survivor, and the dead runtime has drained. The client
		// finishes its protocol none the wiser.
		if err := held.Finish(); err != nil {
			t.Fatalf("finishing the handed-off session: %v", err)
		}

		session("session after the kill") // admits at the survivor

		stop()

		st := d.Stats()
		if st.Handoffs < 1 || st.HandoffFailed != 0 || st.Refused != 0 {
			t.Errorf("director stats %+v: want >=1 handoff, 0 failed, 0 refused", st)
		}
		if s := dead.rt.Snapshot(); s.Handed < 1 {
			t.Errorf("dead runtime Handed = %d, want >= 1", s.Handed)
		}

		// Quiescence and leak baselines on both sides: the dead runtime
		// must hold them the moment Remove returns; the survivor once its
		// last session completes.
		waitFor(t, "the survivor to quiesce", func() bool {
			s := home.rt.Snapshot()
			return s.Inflight == 0 && s.Conns.Entries == 0
		})
		// The director's records end with the sessions and flows they
		// route.
		waitFor(t, "the director's sessions and flows to end", func() bool {
			st := d.Stats()
			return st.Sessions == 0 && st.Flows == 0
		})
		checkQuiescent(t, dead, "on the killed runtime after the drain")
		checkQuiescent(t, home, "on the survivor at quiescence")

		for name, r := range rigs {
			if s := r.rt.Snapshot(); s.Admitted != s.Served+s.Failed+s.Handed {
				t.Errorf("%s ledger: admitted=%d != served=%d + failed=%d + handed=%d",
					name, s.Admitted, s.Served, s.Failed, s.Handed)
			}
		}

		mu.Lock()
		for i, p := range probes {
			for _, secret := range secrets[:p.nsecrets] {
				if len(secret) > 0 && bytes.Contains(p.buf, secret) {
					t.Errorf("probe %d observed an earlier principal's secret "+
						"in a worker invocation after the handoff", i)
				}
			}
		}
		mu.Unlock()

		a.checkClosed(t, dead)
		a.checkClosed(t, home)
	})
}

func (a App) clusterSchemaMismatch(t *testing.T) {
	a.start2(t, 1, nil, func(r0, r1 *rig) {
		d := cluster.New()
		if err := d.Add(a.member(t, "m0", r0, false)); err != nil {
			t.Fatal(err)
		}

		err := d.Add(a.member(t, "m1", r1, true))
		var sm *serve.SchemaMismatchError
		if !errors.As(err, &sm) {
			t.Fatalf("skewed member admitted: err = %v, want *serve.SchemaMismatchError", err)
		}
		if sm.Want == sm.Got {
			t.Errorf("mismatch error carries equal hashes: %+v", sm)
		}
		if n := d.Stats().Members; n != 1 {
			t.Errorf("members after the refusal = %d, want 1", n)
		}

		// The honest twin — same build, same hash — joins fine.
		if err := d.Add(a.member(t, "m1", r1, false)); err != nil {
			t.Fatalf("honest twin refused: %v", err)
		}
		if n := d.Stats().Members; n != 2 {
			t.Errorf("members = %d, want 2", n)
		}

		a.checkClosed(t, r0)
		a.checkClosed(t, r1)
	})
}
