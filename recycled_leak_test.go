package wedge_test

import (
	"testing"

	"wedge"
)

// vulnerableGate builds the PAM-style scratch bug the paper warns about
// twice: §3.3 ("should a recycled callgate be exploited, and called by
// sthreads acting on behalf of different principals, sensitive arguments
// from one caller may become visible to another") and §5.2's second
// lesson (the PAM library "kept sensitive information in scratch storage,
// and did not scrub that storage before returning").
//
// The gate mallocs scratch from its sthread-private heap, copies the
// sensitive argument into it on a processing call (op 0), and frees the
// scratch without scrubbing. An attacker-shaped call (op 1) mallocs the
// same-sized scratch and returns whatever stale bytes it holds.
func vulnerableGate(t *testing.T) wedge.GateFunc {
	return func(g *wedge.Sthread, arg, _ wedge.Addr) wedge.Addr {
		scratch, err := g.Malloc(16)
		if err != nil {
			t.Errorf("gate malloc: %v", err)
			return 0
		}
		var ret wedge.Addr
		switch g.Load64(arg) {
		case 0: // legitimate principal: process the secret
			g.Store64(scratch, g.Load64(arg+8))
			ret = 1
		default: // exploit payload: disclose stale scratch contents
			ret = wedge.Addr(g.Load64(scratch))
		}
		g.Free(scratch) // bug: no scrub before returning the block
		return ret
	}
}

const scratchSecret = 0x5EC12E7

// TestRecycledGateLeaksAcrossCallers: with a recycled callgate, the
// second caller's exploit recovers the first caller's secret from the
// gate sthread's persistent private heap — the isolation the paper says
// recycling trades away.
func TestRecycledGateLeaksAcrossCallers(t *testing.T) {
	sys := wedge.NewSystem()
	err := sys.Main(func(main *wedge.Sthread) {
		argTag, err := sys.TagNew(main)
		if err != nil {
			t.Fatal(err)
		}
		argA, _ := main.Smalloc(argTag, 16)
		main.Store64(argA, 0)
		main.Store64(argA+8, scratchSecret)
		argB, _ := main.Smalloc(argTag, 16)
		main.Store64(argB, 1)

		gateSC := wedge.NewSC()
		if err := gateSC.MemAdd(argTag, wedge.PermRead); err != nil {
			t.Fatal(err)
		}
		r, err := main.NewRecycled("vuln", gateSC, vulnerableGate(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		// Principal A's legitimate call plants its secret in scratch.
		if ret, err := r.Call(main, argA); err != nil || ret != 1 {
			t.Fatalf("processing call = %#x, %v", ret, err)
		}
		// Principal B's exploit call reads the stale scratch.
		got, err := r.Call(main, argB)
		if err != nil {
			t.Fatal(err)
		}
		if got != scratchSecret {
			t.Fatalf("exploit recovered %#x; the recycled-gate leak (expected %#x) did not reproduce",
				got, scratchSecret)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledGateScrubsAcrossPrincipals: the gatepool counterpart of the
// recycled-gate leak. A worker that copies its sensitive argument into
// its ring entry's scratch word leaves residue there; when the ring
// position passes to a different principal, the pool scrubs the block,
// so the second principal's probe reads zeroes. The same pool with
// scrubbing disabled (the ablation toggle) reproduces the §3.3 exposure —
// proving it is the scrub, not luck, that closes the leak.
func TestPooledGateScrubsAcrossPrincipals(t *testing.T) {
	for _, noScrub := range []bool{false, true} {
		name := "scrubbed"
		if noScrub {
			name = "noscrub"
		}
		t.Run(name, func(t *testing.T) {
			sys := wedge.NewSystem()
			err := sys.Main(func(main *wedge.Sthread) {
				// The worker copies the word at arg+0 into the scratch
				// slot arg+8 of its entry block and does not scrub it —
				// PAM's bug (§5.2), recreated in shared argument memory.
				worker := func(g *wedge.Sthread, b *wedge.Batch, _ wedge.Addr) {
					for b.More() {
						g.Store64(b.Arg()+8, g.Load64(b.Arg()))
						b.Complete(1)
					}
				}
				// One slot: principal A runs twice, so both ring positions
				// hold its residue and B's entry lands in one of them.
				pool, err := wedge.NewGatePool(main, wedge.GatePoolConfig{
					Name:    "leaky",
					Slots:   1,
					Gates:   []wedge.GateDef{{Name: "process", Batch: worker}},
					NoScrub: noScrub,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()

				// Principal A processes its secret through the worker.
				for i := 0; i < 2; i++ {
					a, err := pool.Acquire("principal-a")
					if err != nil {
						t.Fatal(err)
					}
					main.Store64(a.Arg, scratchSecret)
					if ret, err := a.CallBatch(main, 0, -1, 0); err != nil || ret != 1 {
						t.Fatalf("processing entry = %v, %v", ret, err)
					}
					a.Release()
				}

				// Principal B binds one of A's positions and scans the block.
				b, err := pool.Acquire("principal-b")
				if err != nil {
					t.Fatal(err)
				}
				defer b.Release()
				got := main.Load64(b.Arg + 8)
				if noScrub && got != scratchSecret {
					t.Fatalf("without scrubbing the residue should leak; read %#x", got)
				}
				if !noScrub && got != 0 {
					t.Fatalf("scrubbed slot leaked %#x across principals", got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStandardGateIsolatesCallers: the identical vulnerable gate code,
// run as a standard (non-recycled) callgate, leaks nothing: each
// invocation is a fresh sthread whose private heap starts from the
// pristine pre-main snapshot, so the stale-scratch read sees zeros.
func TestStandardGateIsolatesCallers(t *testing.T) {
	sys := wedge.NewSystem()
	err := sys.Main(func(main *wedge.Sthread) {
		argTag, err := sys.TagNew(main)
		if err != nil {
			t.Fatal(err)
		}
		argA, _ := main.Smalloc(argTag, 16)
		main.Store64(argA, 0)
		main.Store64(argA+8, scratchSecret)
		argB, _ := main.Smalloc(argTag, 16)
		main.Store64(argB, 1)

		gateSC := wedge.NewSC()
		if err := gateSC.MemAdd(argTag, wedge.PermRead); err != nil {
			t.Fatal(err)
		}
		workerSC := wedge.NewSC()
		if err := workerSC.MemAdd(argTag, wedge.PermRead); err != nil {
			t.Fatal(err)
		}
		workerSC.GateAdd(vulnerableGate(t), gateSC, 0, "vuln")
		spec := workerSC.Gates[0]

		worker, err := main.Create(workerSC, func(w *wedge.Sthread, _ wedge.Addr) wedge.Addr {
			if ret, err := w.CallGate(spec, nil, argA); err != nil || ret != 1 {
				return 0xBAD
			}
			got, err := w.CallGate(spec, nil, argB)
			if err != nil {
				return 0xBAD
			}
			return got
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ret, fault := main.Join(worker)
		if fault != nil {
			t.Fatal(fault)
		}
		if ret == 0xBAD {
			t.Fatal("gate invocations failed")
		}
		if ret == scratchSecret {
			t.Fatal("standard callgate leaked scratch across invocations")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
