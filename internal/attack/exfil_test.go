//go:build !race

// The exfiltration tests below model the paper's §5.1.2 attacker: code
// inside the exploited compartment reading shared simulated memory the
// victim's callgate writes. The MITM test's probe scans while the gate
// is writing; that unsynchronised scan is the attack — at the Go level it
// is a true data race on the simulated frames, and the race detector
// correctly flags it. The tests are therefore excluded under -race: the property
// they check (which partitionings leak key material to such an attacker)
// is exercised in normal test runs.

package attack

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wedge/internal/httpd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// TestSimplePartitionLeaksSessionKeyToMITM reproduces the §5.1.2 attack
// that defeats the Figure 2 partitioning: the attacker interposes
// passively (recording everything) and exploits the worker, which CAN read
// the session master secret. Combining the two recovers the legitimate
// client's cleartext.
func TestSimplePartitionLeaksSessionKeyToMITM(t *testing.T) {
	type exploit struct {
		s   *sthread.Sthread
		arg vm.Addr
	}
	// The exploited worker hands the attacker its compartment handle; the
	// attacker reads the shared argument buffer once the gate has put the
	// master secret there and the worker is blocked on the request.
	worker := make(chan exploit, 1)
	hooks := httpd.Hooks{Worker: func(s *sthread.Sthread, c *httpd.ConnContext) {
		worker <- exploit{s, c.ArgAddr}
	}}
	var master [minissl.MasterLen]byte
	rec := runServer(t, "simple", hooks, func(k *kernel.Kernel) *Recording {
		return Passive(k.Net, "apache:443")
	}, func() {
		var w exploit
		select {
		case w = <-worker:
		default:
			t.Fatal("the worker hook never ran before the handshake finished")
		}
		if err := w.s.TryRead(w.arg+112, master[:]); err != nil {
			t.Fatalf("exploited worker cannot read its argument buffer: %v", err)
		}
		if master == ([minissl.MasterLen]byte{}) {
			t.Fatal("no master secret in the worker's argument buffer after the handshake")
		}
	})
	keys, err := rec.KeysFromLeakedMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DecryptAppData(rec, keys)
	if err != nil {
		t.Fatalf("decryption with leaked key failed: %v", err)
	}
	var all strings.Builder
	for _, p := range plain {
		all.Write(p)
	}
	if !strings.Contains(all.String(), "GET /index.html") {
		t.Fatalf("recovered %q; expected the client's request", all.String())
	}
}

// TestMITMPartitionDeniesSessionKey is the §5.1.2 defense: under the
// Figures 3-5 partitioning the same attacker — passive interposition plus
// an exploit of the network-facing handshake sthread — obtains no key
// material, and the recording stays ciphertext.
func TestMITMPartitionDeniesSessionKey(t *testing.T) {
	probeErr := make(chan error, 1)
	argResidue := make(chan [minissl.MasterLen]byte, 1)
	hooks := httpd.Hooks{Worker: func(s *sthread.Sthread, c *httpd.ConnContext) {
		// Direct read of the session region must fault.
		probeErr <- s.TryRead(c.SessionAddr, make([]byte, 16))
		// And the argument buffer never carries key material in this
		// partitioning; sample what is there at the master-offset the
		// Simple variant would have used.
		go func() {
			buf := make([]byte, minissl.MasterLen)
			var last [minissl.MasterLen]byte
			for i := 0; i < 100; i++ {
				if err := s.TryRead(c.ArgAddr+112, buf); err != nil {
					break
				}
				copy(last[:], buf)
				time.Sleep(100 * time.Microsecond)
			}
			argResidue <- last
		}()
	}}
	rec := runServer(t, "mitm", hooks, func(k *kernel.Kernel) *Recording {
		return Passive(k.Net, "apache:443")
	}, nil)
	if err := <-probeErr; err == nil {
		t.Fatal("handshake sthread read the session region")
	}

	// Whatever the exploit scraped from its own memory is useless.
	residue := <-argResidue
	keys, err := rec.KeysFromLeakedMaster(residue)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptAppData(rec, keys); !errors.Is(err, ErrNoKey) {
		t.Fatalf("recording decrypted with scraped residue: %v", err)
	}
}
