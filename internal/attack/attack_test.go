package attack

import (
	"crypto/rsa"
	"errors"
	"sync"
	"testing"

	"wedge/internal/httpd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

var (
	keyOnce sync.Once
	key     *rsa.PrivateKey
)

func serverKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		k, err := minissl.GenerateServerKey()
		if err != nil {
			t.Fatal(err)
		}
		key = k
	})
	return key
}

// runServer boots one httpd variant for one connection with attacker hooks
// installed, drives one legitimate client request, and returns the kernel
// (whose network the attacker pre-instrumented via prep). afterHandshake,
// when set, runs between the client's handshake and its request.
func runServer(t *testing.T, variant string, hooks httpd.Hooks, prep func(k *kernel.Kernel) *Recording, afterHandshake func()) *Recording {
	t.Helper()
	k := kernel.New()
	priv := serverKey(t)
	if err := httpd.SetupDocroot(k, "/var/www", 256); err != nil {
		t.Fatal(err)
	}
	rec := prep(k)
	app := sthread.Boot(k)
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			var serve func(*netsim.Conn) error
			switch variant {
			case "simple":
				srv, err := httpd.NewSimple(root, "/var/www", priv, false, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serve = srv.ServeConn
			case "mitm":
				srv, err := httpd.NewMITM(root, "/var/www", priv, false, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serve = srv.ServeConn
			}
			l, err := root.Task.Listen("apache:443")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			close(ready)
			c, err := l.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			serve(c)
		})
	}()
	<-ready

	conn, err := k.Net.Dial("apache:443")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := minissl.ClientHandshake(conn, &minissl.ClientConfig{ServerPub: &priv.PublicKey})
	if err != nil {
		t.Fatalf("legitimate client handshake: %v", err)
	}
	if afterHandshake != nil {
		// The worker now waits for the request with the session keys set
		// up: an exploit sampling here sees the handshake's full state.
		afterHandshake()
	}
	if _, err := cc.Write([]byte("GET /index.html")); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.ReadRecord(); err != nil {
		t.Fatalf("legitimate client response: %v", err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	return rec
}

// TestEavesdropAloneIsUseless: under either partitioning, recording the
// wire without any exploit yields nothing (sanity check that the recorded
// handshake does not itself leak the key).
func TestEavesdropAloneIsUseless(t *testing.T) {
	for _, variant := range []string{"simple", "mitm"} {
		t.Run(variant, func(t *testing.T) {
			rec := runServer(t, variant, httpd.Hooks{}, func(k *kernel.Kernel) *Recording {
				return Eavesdrop(k.Net, "apache:443")
			}, nil)
			// The attacker guesses a zero master: decryption must fail.
			keys, err := rec.KeysFromLeakedMaster([minissl.MasterLen]byte{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecryptAppData(rec, keys); !errors.Is(err, ErrNoKey) {
				t.Fatalf("recording decrypted without a key: %v", err)
			}
			// But the randoms are visible, as the paper notes.
			cr, sr, err := rec.Randoms()
			if err != nil {
				t.Fatal(err)
			}
			if cr == sr {
				t.Fatal("degenerate randoms")
			}
		})
	}
}

// TestNoEncryptionOracleInMITMGates: an exploited handshake sthread cannot
// use receive_finished as a decryption oracle — feeding it
// attacker-chosen ciphertext yields only a binary failure.
func TestNoEncryptionOracleInMITMGates(t *testing.T) {
	verdicts := make(chan vm.Addr, 1)
	hooks := httpd.Hooks{Worker: func(s *sthread.Sthread, c *httpd.ConnContext) {
		spec, ok := c.Gates["receive_finished"]
		if !ok {
			verdicts <- 99
			return
		}
		// Feed garbage "ciphertext" through the gate.
		s.Store64(c.ArgAddr+552, 64)
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = byte(i * 7)
		}
		s.Write(c.ArgAddr+560, garbage)
		ret, err := s.CallGate(spec.Spec.(*policy.GateSpec), nil, c.ArgAddr)
		if err != nil {
			verdicts <- 98
			return
		}
		verdicts <- ret
	}}
	runServer(t, "mitm", hooks, func(k *kernel.Kernel) *Recording {
		return Eavesdrop(k.Net, "apache:443")
	}, nil)
	if v := <-verdicts; v != 0 {
		t.Fatalf("oracle probe returned %d; the gate must answer only failure", v)
	}
}
