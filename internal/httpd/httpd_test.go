package httpd

import (
	"crypto/rsa"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/tags"
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
			t.Fatalf("GenerateServerKey: %v", err)
		}
		key = k
	})
	return key
}

// clientResult is what one driven client observed.
type clientResult struct {
	resp    []byte
	session minissl.ClientSession
	resumed bool
	err     error
}

// runVariant boots a system, builds variant inside Main, serves nConns
// connections sequentially, and drives nConns clients. Clients may resume
// by passing a prior session.
func runVariant(t *testing.T, variant string, cached bool, nConns int, hooks Hooks,
	drive func(t *testing.T, dial func(sess *minissl.ClientSession) clientResult)) {
	t.Helper()
	k := kernel.New()
	priv := serverKey(t)
	if err := SetupDocroot(k, "/var/www", 1024); err != nil {
		t.Fatal(err)
	}
	app := sthread.Boot(k)

	ready := make(chan struct{})
	done := make(chan error, 1)

	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			var serveConn func(*netsim.Conn) error
			var closeSrv func()
			switch variant {
			case "mono":
				srv, err := NewMonolithic(root, "/var/www", priv, cached, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serveConn = srv.ServeConn
			case "simple":
				srv, err := NewSimple(root, "/var/www", priv, cached, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serveConn = srv.ServeConn
			case "mitm":
				srv, err := NewMITM(root, "/var/www", priv, cached, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serveConn = srv.ServeConn
			case "recycled":
				srv, err := NewRecycled(root, "/var/www", priv, cached, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serveConn = srv.ServeConn
				closeSrv = func() { srv.Close() }
			case "pooled":
				srv, err := NewPooled(root, "/var/www", priv, cached, 2, hooks)
				if err != nil {
					t.Error(err)
					close(ready)
					return
				}
				serveConn = srv.ServeConn
				closeSrv = func() { srv.Close() }
			default:
				t.Errorf("unknown variant %q", variant)
				close(ready)
				return
			}
			if closeSrv != nil {
				defer closeSrv()
			}
			l, err := root.Task.Listen("apache:443")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			close(ready)
			for i := 0; i < nConns; i++ {
				c, err := l.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				serveConn(c)
			}
		})
	}()

	<-ready
	dial := func(sess *minissl.ClientSession) clientResult {
		conn, err := k.Net.Dial("apache:443")
		if err != nil {
			return clientResult{err: err}
		}
		defer conn.Close()
		cc, err := minissl.ClientHandshake(conn, &minissl.ClientConfig{
			ServerPub: &priv.PublicKey,
			Session:   sess,
		})
		if err != nil {
			return clientResult{err: err}
		}
		if _, err := cc.Write([]byte("GET /index.html")); err != nil {
			return clientResult{err: err}
		}
		resp, err := cc.ReadRecord()
		return clientResult{resp: resp, session: cc.Session, resumed: cc.Resumed, err: err}
	}
	drive(t, dial)
	if err := <-done; err != nil {
		t.Fatalf("server main: %v", err)
	}
}

func checkOK(t *testing.T, r clientResult) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("client: %v", r.err)
	}
	if !strings.HasPrefix(string(r.resp), "200 OK\n") {
		t.Fatalf("response = %.40q", r.resp)
	}
	if len(r.resp) != len("200 OK\n")+1024 {
		t.Fatalf("response length = %d", len(r.resp))
	}
}

func TestMonolithicServes(t *testing.T) {
	runVariant(t, "mono", false, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
		checkOK(t, dial(nil))
	})
}

func TestMonolithicSessionCache(t *testing.T) {
	runVariant(t, "mono", true, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		first := dial(nil)
		checkOK(t, first)
		second := dial(&first.session)
		checkOK(t, second)
		if !second.resumed {
			t.Fatal("second connection did not resume")
		}
	})
}

func TestSimpleServes(t *testing.T) {
	runVariant(t, "simple", false, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
		checkOK(t, dial(nil))
	})
}

func TestSimpleSessionCache(t *testing.T) {
	runVariant(t, "simple", true, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		first := dial(nil)
		checkOK(t, first)
		second := dial(&first.session)
		checkOK(t, second)
		if !second.resumed {
			t.Fatal("no resumption")
		}
	})
}

func TestMITMServes(t *testing.T) {
	runVariant(t, "mitm", false, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
		checkOK(t, dial(nil))
	})
}

func TestMITMSessionCache(t *testing.T) {
	runVariant(t, "mitm", true, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		first := dial(nil)
		checkOK(t, first)
		second := dial(&first.session)
		checkOK(t, second)
		if !second.resumed {
			t.Fatal("no resumption")
		}
	})
}

func TestRecycledServes(t *testing.T) {
	runVariant(t, "recycled", false, 3, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
		checkOK(t, dial(nil))
		checkOK(t, dial(nil))
	})
}

func TestRecycledSessionCache(t *testing.T) {
	runVariant(t, "recycled", true, 2, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		first := dial(nil)
		checkOK(t, first)
		second := dial(&first.session)
		checkOK(t, second)
		if !second.resumed {
			t.Fatal("no resumption")
		}
	})
}

// TestWorkerCannotReadPrivateKey: the §5.1.1 headline claim, for both
// partitioned variants. The injected hook runs with the worker's full
// privileges and tries to read the key; the probe must fail, and the
// connection must still complete (the exploit is a read attempt via
// TryRead, not a crash).
func TestWorkerCannotReadPrivateKey(t *testing.T) {
	for _, variant := range []string{"simple", "mitm", "recycled", "pooled"} {
		t.Run(variant, func(t *testing.T) {
			probed := make(chan error, 1)
			hooks := Hooks{Worker: func(s *sthread.Sthread, c *ConnContext) {
				buf := make([]byte, 16)
				probed <- s.TryRead(c.PrivKeyAddr, buf)
			}}
			runVariant(t, variant, false, 1, hooks, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
				checkOK(t, dial(nil))
			})
			if err := <-probed; err == nil {
				t.Fatal("worker read the private key")
			}
		})
	}
}

// TestMonolithicWorkerReadsPrivateKey is the contrast case: in the
// unpartitioned server the same probe succeeds.
func TestMonolithicWorkerReadsPrivateKey(t *testing.T) {
	probed := make(chan error, 1)
	hooks := Hooks{Worker: func(s *sthread.Sthread, c *ConnContext) {
		buf := make([]byte, 16)
		probed <- s.TryRead(c.PrivKeyAddr, buf)
	}}
	runVariant(t, "mono", false, 1, hooks, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
	})
	if err := <-probed; err != nil {
		t.Fatalf("monolithic probe failed (%v); the baseline should be exploitable", err)
	}
}

// TestMITMHandshakeCannotReadSessionKey: the §5.1.2 property separating
// the MITM partitioning from the Simple one. The handshake sthread holds
// no permission on the session-key region.
func TestMITMHandshakeCannotReadSessionKey(t *testing.T) {
	probed := make(chan error, 1)
	hooks := Hooks{Worker: func(s *sthread.Sthread, c *ConnContext) {
		buf := make([]byte, 16)
		probed <- s.TryRead(c.SessionAddr, buf)
	}}
	runVariant(t, "mitm", false, 1, hooks, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
	})
	if err := <-probed; err == nil {
		t.Fatal("handshake sthread read the session-key region")
	}
}

// TestMITMPrimitiveBudget checks the per-request primitive counts that
// drive the Table 2 overhead: two sthreads and a fixed number of callgate
// invocations per full-handshake request.
func TestMITMPrimitiveBudget(t *testing.T) {
	runVariant(t, "mitm", false, 1, Hooks{}, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		checkOK(t, dial(nil))
	})
	// The stats live inside the server, which is gone; re-run with a
	// captured server instead.
	k := kernel.New()
	priv := serverKey(t)
	SetupDocroot(k, "/var/www", 1024)
	app := sthread.Boot(k)
	var srv *MITM
	ready := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		app.Main(func(root *sthread.Sthread) {
			var err error
			srv, err = NewMITM(root, "/var/www", priv, false, Hooks{})
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			l, err := root.Task.Listen("apache:443")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			close(ready)
			c, _ := l.Accept()
			srv.ServeConn(c)
		})
	}()
	<-ready
	conn, err := k.Net.Dial("apache:443")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := minissl.ClientHandshake(conn, &minissl.ClientConfig{ServerPub: &priv.PublicKey})
	if err != nil {
		t.Fatal(err)
	}
	cc.Write([]byte("GET /about.html"))
	if _, err := cc.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The client has its response before the server finishes counting;
	// read the stats once ServeConn has returned.
	<-served

	if got := srv.Stats.SthreadsHS.Load(); got != 2 {
		t.Fatalf("sthreads per request = %d, want 2 (Figure 3)", got)
	}
	// hello + kex + receive_finished + send_finished + SSL_read + SSL_write.
	if got := srv.Stats.GateCalls.Load(); got != 6 {
		t.Fatalf("gate calls per request = %d, want 6", got)
	}
}

// TestRecycledCrossConnectionResidue demonstrates the isolation trade-off
// the paper warns about for recycled callgates: a later worker can observe
// residue of an earlier connection's key material in the shared argument
// memory, because the gate's shared tag outlives principals.
func TestRecycledCrossConnectionResidue(t *testing.T) {
	var firstMaster []byte
	var residue []byte
	var mu sync.Mutex
	connN := 0
	hooks := Hooks{Worker: func(s *sthread.Sthread, c *ConnContext) {
		mu.Lock()
		defer mu.Unlock()
		connN++
		if connN == 2 {
			// The second worker scans the shared arg block it was
			// handed — same chunk the first connection used.
			buf := make([]byte, 48)
			if err := s.TryRead(c.ArgAddr+fMaster.Off(), buf); err == nil {
				residue = buf
			}
		}
	}}
	runVariant(t, "recycled", false, 2, hooks, func(t *testing.T, dial func(*minissl.ClientSession) clientResult) {
		first := dial(nil)
		checkOK(t, first)
		mu.Lock()
		firstMaster = append([]byte(nil), first.session.Master[:]...)
		mu.Unlock()
		checkOK(t, dial(nil))
	})
	if string(residue) != string(firstMaster) {
		t.Fatalf("expected the shared-tag residue leak the paper describes; residue=%x first=%x",
			residue, firstMaster)
	}
}

func TestServeStaticPathHandling(t *testing.T) {
	k := kernel.New()
	SetupDocroot(k, "/var/www", 64)
	app := sthread.Boot(k)
	err := app.Main(func(root *sthread.Sthread) {
		if got := ServeStatic(root, "/var/www", "GET /index.html"); !strings.HasPrefix(string(got), "200 OK") {
			t.Errorf("index: %.30q", got)
		}
		if got := ServeStatic(root, "/var/www", "GET /missing"); !strings.HasPrefix(string(got), "404") {
			t.Errorf("missing: %.30q", got)
		}
		if got := ServeStatic(root, "/var/www", "GET /../etc/shadow"); !strings.HasPrefix(string(got), "400") {
			t.Errorf("traversal: %.30q", got)
		}
		if got := ServeStatic(root, "/var/www", "POST /"); !strings.HasPrefix(string(got), "400") {
			t.Errorf("bad verb: %.30q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = vm.PageSize
}

// TestMITMWorkerMemQuota: the §7 DoS extension on the flagship server. An
// exploit in the SSL handshake sthread allocating in a loop is stopped at
// the quota, the handshake still completes, and the callgates (which
// inherit the root's unlimited quota) are unaffected.
func TestMITMWorkerMemQuota(t *testing.T) {
	k := kernel.New()
	priv := serverKey(t)
	if err := SetupDocroot(k, "/var/www", 256); err != nil {
		t.Fatal(err)
	}
	app := sthread.Boot(k)

	var mapped atomic.Int64
	hooks := Hooks{Worker: func(s *sthread.Sthread, _ *ConnContext) {
		n := 0
		for ; n < 1000; n++ {
			if _, err := s.Task.Mmap(tags.DefaultRegionSize, vm.PermRW); err != nil {
				break
			}
		}
		mapped.Store(int64(n))
	}}

	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := NewMITM(root, "/var/www", priv, false, hooks)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			srv.WorkerMemPages = 2 * tags.DefaultRegionSize / vm.PageSize
			l, err := root.Task.Listen("apache:443")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			close(ready)
			c, err := l.Accept()
			if err != nil {
				return
			}
			if err := srv.ServeConn(c); err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}()
	<-ready

	conn, err := k.Net.Dial("apache:443")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := minissl.ClientHandshake(conn, &minissl.ClientConfig{ServerPub: &priv.PublicKey})
	if err != nil {
		t.Fatalf("handshake with quota-bound worker: %v", err)
	}
	if _, err := cc.Write([]byte("GET /index.html")); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.ReadRecord(); err != nil {
		t.Fatalf("request after exploit: %v", err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := mapped.Load(); got != 2 {
		t.Fatalf("exploit mapped %d regions before the quota fired, want 2", got)
	}
}
