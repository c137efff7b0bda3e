package httpd

import (
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// TestMalformedKexParsesNoKey: the setup gates' kex operation — the
// shared setupOps and the MITM build's own copy — load and bound-check
// the ciphertext before they read the private key, so a malformed call
// from a compromised worker costs no key construction. Building the key
// alone makes about 57 allocations.
func TestMalformedKexParsesNoKey(t *testing.T) {
	const maxAllocs = 10
	priv := serverKey(t)
	app := sthread.Boot(kernel.New())
	err := app.Main(func(root *sthread.Sthread) {
		s, err := NewSimple(root, "/", priv, false, Hooks{})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := NewMITM(root, "/", priv, false, Hooks{})
		if err != nil {
			t.Error(err)
			return
		}
		reg, err := m.newConnRegions()
		if err != nil {
			t.Error(err)
			return
		}
		simpleState, mitmState := &setupGateState{}, &setupGateState{}
		mitmGate := m.makeSetupGate(mitmState, reg.sess)
		gates := map[string]func() vm.Addr{
			"setupOps": func() vm.Addr { return setupOps(root, reg.arg, s.privAddr, simpleState, nil) },
			"mitm":     func() vm.Addr { return mitmGate(root, reg.arg, m.privAddr) },
		}
		for gate, call := range gates {
			for _, c := range []struct {
				name string
				set  func()
			}{
				{"empty ciphertext", func() { fData.Store(root, reg.arg, nil) }},
				{"length word past capacity", func() { root.Store64(reg.arg+fData.Off(), uint64(fData.Cap())+1) }},
			} {
				fOp.Store(root, reg.arg, opKex)
				c.set()
				allocs := testing.AllocsPerRun(20, func() {
					if call() != 0 {
						t.Errorf("%s, %s: the gate accepted the call", gate, c.name)
					}
				})
				if allocs > maxAllocs {
					t.Errorf("%s, %s: %.0f allocations per call, want at most %d", gate, c.name, allocs, maxAllocs)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
