package sshd

import (
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// TestMalformedSignCallParsesNoKey: the sign gate bound-checks its data
// before it reads the host key, so a malformed call from a compromised
// worker costs no key construction. Building the key alone makes about
// 57 allocations.
func TestMalformedSignCallParsesNoKey(t *testing.T) {
	const maxAllocs = 10
	keyBlob, err := minissl.MarshalPrivateKey(testHostKey(t))
	if err != nil {
		t.Fatal(err)
	}
	app := sthread.Boot(kernel.New())
	err = app.Main(func(root *sthread.Sthread) {
		_, hostAddr, err := placeSSHBlob(root, keyBlob)
		if err != nil {
			t.Error(err)
			return
		}
		argTag, err := root.App().Tags.TagNew(root.Task)
		if err != nil {
			t.Error(err)
			return
		}
		arg, err := root.Smalloc(argTag, sshSchema.Size())
		if err != nil {
			t.Error(err)
			return
		}
		for _, c := range []struct {
			name string
			set  func(arg vm.Addr)
		}{
			{"empty data", func(arg vm.Addr) { fStr.Store(root, arg, nil) }},
			{"length word past the sign cap", func(arg vm.Addr) { root.Store64(arg+fStr.Off(), sshSignCap+1) }},
		} {
			c.set(arg)
			allocs := testing.AllocsPerRun(20, func() {
				if signGateEntry(root, arg, hostAddr) != 0 {
					t.Errorf("%s: the gate signed", c.name)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("%s: %.0f allocations per call, want at most %d", c.name, allocs, maxAllocs)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
