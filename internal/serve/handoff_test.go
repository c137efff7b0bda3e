// Handoff unit tests: the record wire format, the export/resume cycle
// against the echo harness, the typed refusals, and the Snapshot ledger
// invariant under concurrent traffic.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wedge/internal/netsim"
)

// TestHandoffRecordRoundTrip: Marshal/Unmarshal is exact, and every
// malformed mutation is refused as ErrBadHandoff.
func TestHandoffRecordRoundTrip(t *testing.T) {
	rec := &HandoffRecord{
		App:        "echo",
		SchemaHash: 0xdeadbeefcafef00d,
		Principal:  "client-7",
		State:      []byte("app-state"),
	}
	wire := rec.Marshal()
	got, err := UnmarshalHandoffRecord(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != rec.App || got.SchemaHash != rec.SchemaHash ||
		got.Principal != rec.Principal || !bytes.Equal(got.State, rec.State) {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}

	bad := [][]byte{
		nil,
		wire[:1],
		wire[:len(wire)-1],                   // truncated in the last field
		append(append([]byte{}, wire...), 0), // trailing byte
		func() []byte { w := append([]byte{}, wire...); w[0] = 99; return w }(), // version
	}
	for i, w := range bad {
		if _, err := UnmarshalHandoffRecord(w); !errors.Is(err, ErrBadHandoff) {
			t.Errorf("malformed %d: err = %v, want ErrBadHandoff", i, err)
		}
	}
}

// TestHandoffExportResume: park an echo worker mid-invocation, export
// the session, and resume it on the same runtime — the client's leg
// moves, the app payload survives, and the ledger retires the first
// admission as Handed.
func TestHandoffExportResume(t *testing.T) {
	var exported, imported atomic.Uint32
	app := App[echoState]{
		Export: func(c *Conn[echoState]) []byte {
			exported.Add(1)
			return []byte("stamp")
		},
		Import: func(c *Conn[echoState], rec *HandoffRecord) error {
			imported.Add(1)
			if string(rec.State) != "stamp" {
				return fmt.Errorf("state %q", rec.State)
			}
			if !c.Resumed {
				t.Error("import ran on a non-resumed conn")
			}
			return nil
		},
	}
	startEcho(t, app, func(rig *echoRig) {
		cl, sv := netsim.Pipe("client", "server")
		defer cl.Close()
		serveDone := make(chan error, 1)
		go func() { serveDone <- rig.rt.ServeConnAs(sv, "p1") }()

		// Read the greeting: the worker is now parked on the payload read.
		buf := make([]byte, 1)
		if _, err := cl.Read(buf); err != nil || buf[0] != '>' {
			t.Fatalf("greeting: %q %v", buf, err)
		}

		rec, err := rig.rt.HandoffPrincipal("p1")
		if err != nil {
			t.Fatal(err)
		}
		if err := <-serveDone; !errors.Is(err, ErrHandedOff) {
			t.Fatalf("serve returned %v, want ErrHandedOff", err)
		}
		if rec.App != "echo" || rec.SchemaHash != rig.rt.SchemaHash() || rec.Principal != "p1" {
			t.Fatalf("record %+v", rec)
		}
		if exported.Load() != 1 {
			t.Fatalf("export hook ran %d times", exported.Load())
		}

		// A second handoff of the same principal finds nothing.
		if _, err := rig.rt.HandoffPrincipal("p1"); !errors.Is(err, ErrNoSession) {
			t.Fatalf("second handoff: %v, want ErrNoSession", err)
		}

		// Resume; the echo worker greets again and completes the round trip.
		cl2, sv2 := netsim.Pipe("client", "server")
		defer cl2.Close()
		resumeDone := make(chan error, 1)
		go func() { resumeDone <- rig.rt.ResumeConnAs(sv2, "p1", rec) }()
		if _, err := cl2.Read(buf); err != nil || buf[0] != '>' {
			t.Fatalf("resumed greeting: %q %v", buf, err)
		}
		if _, err := cl2.Write([]byte{'x'}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl2.Read(buf); err != nil || buf[0] != 'x' {
			t.Fatalf("resumed echo: %q %v", buf, err)
		}
		if err := <-resumeDone; err != nil {
			t.Fatalf("resume: %v", err)
		}
		if imported.Load() != 1 {
			t.Fatalf("import hook ran %d times", imported.Load())
		}

		s := rig.rt.Snapshot()
		if s.Admitted != 2 || s.Handed != 1 || s.Served != 1 || s.Failed != 0 || s.Inflight != 0 {
			t.Fatalf("ledger %+v", s)
		}
		if s.Conns.Entries != 0 {
			t.Fatalf("conn-table entries = %d after handoff cycle", s.Conns.Entries)
		}
	})
}

// TestResumeRefusals: every way a record can be wrong is a typed
// refusal before any state is touched.
func TestResumeRefusals(t *testing.T) {
	startEcho(t, App[echoState]{}, func(rig *echoRig) {
		good := &HandoffRecord{App: "echo", SchemaHash: rig.rt.SchemaHash(), Principal: "p"}
		check := func(name string, rec *HandoffRecord, target error) {
			t.Helper()
			cl, sv := netsim.Pipe("c", "s")
			defer cl.Close()
			err := rig.rt.ResumeConnAs(sv, "p", rec)
			if !errors.Is(err, target) {
				t.Errorf("%s: err = %v, want %v", name, err, target)
			}
		}
		wrongApp := *good
		wrongApp.App = "notecho"
		check("wrong app", &wrongApp, ErrSchemaMismatch)

		wrongHash := *good
		wrongHash.SchemaHash ^= 1
		check("wrong hash", &wrongHash, ErrSchemaMismatch)

		noPrincipal := *good
		noPrincipal.Principal = ""
		check("empty principal", &noPrincipal, ErrBadHandoff)

		bigState := *good
		bigState.State = make([]byte, maxHandoffState+1)
		check("oversized state", &bigState, ErrBadHandoff)

		check("nil record", nil, ErrBadHandoff)

		// The good record still admits (and serves normally).
		cl, sv := netsim.Pipe("c", "s")
		done := make(chan error, 1)
		go func() { done <- rig.rt.ResumeConnAs(sv, "p", good) }()
		buf := make([]byte, 1)
		if _, err := cl.Read(buf); err != nil {
			t.Fatal(err)
		}
		cl.Write([]byte{'x'})
		cl.Read(buf)
		cl.Close()
		if err := <-done; err != nil {
			t.Fatalf("good record refused: %v", err)
		}
	})
}

// TestSnapshotLedgerUnderTraffic is the torn-read regression test:
// Snapshot must be assembled in one critical section, so
// Admitted == Served + Failed + Handed + Inflight holds in every single
// read taken while connections churn.
func TestSnapshotLedgerUnderTraffic(t *testing.T) {
	startEcho(t, App[echoState]{Slots: 4}, func(rig *echoRig) {
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			rig.rt.Serve(rig.l)
		}()
		stop := make(chan struct{})
		var torn atomic.Uint32
		var readers sync.WaitGroup
		for i := 0; i < 4; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := rig.rt.Snapshot()
					if s.Admitted != s.Served+s.Failed+s.Handed+uint64(s.Inflight) {
						torn.Add(1)
					}
				}
			}()
		}

		var drivers sync.WaitGroup
		for g := 0; g < 8; g++ {
			drivers.Add(1)
			go func() {
				defer drivers.Done()
				for i := 0; i < 40; i++ {
					conn, await, finish := dialEcho(t, rig.k)
					if err := await(); err != nil {
						conn.Close()
						continue
					}
					finish()
					conn.Close()
				}
			}()
		}
		drivers.Wait()
		close(stop)
		readers.Wait()
		if n := torn.Load(); n != 0 {
			t.Fatalf("%d torn ledger reads", n)
		}
		// A client finishes when it reads its echo, before the server side
		// departs; Serve returns only once every connection it dispatched
		// has, so the final ledger is read after it.
		rig.l.Close()
		<-serveDone
		s := rig.rt.Snapshot()
		if s.Admitted == 0 || s.Admitted != s.Served+s.Failed+s.Handed {
			t.Fatalf("final ledger %+v", s)
		}
	})
}
