package pop3

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// servePooled boots a system running a PooledServer for nConns
// connections, handing the test the dial helper, the live server, the
// kernel (for leak checks), and the app stats.
func servePooled(t *testing.T, slots, nConns int, hooks Hooks,
	drive func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App)) {
	t.Helper()
	k := kernel.New()
	app := sthread.Boot(k)
	ready := make(chan *PooledServer, 1)
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := NewPooled(root, testBoxes(), slots, hooks)
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			defer srv.Close()
			l, err := root.Task.Listen("pop3:110")
			if err != nil {
				t.Error(err)
				close(ready)
				return
			}
			ready <- srv
			var wg sync.WaitGroup
			for i := 0; i < nConns; i++ {
				c, err := l.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					srv.ServeConn(c)
				}()
			}
			wg.Wait()
		})
	}()
	srv := <-ready
	if srv == nil {
		t.FailNow()
	}
	dial := func() *popClient {
		conn, err := k.Net.Dial("pop3:110")
		if err != nil {
			t.Fatal(err)
		}
		c := &popClient{conn: conn, r: bufio.NewReader(conn)}
		if greet, err := c.r.ReadString('\n'); err != nil || !strings.HasPrefix(greet, "+OK") {
			t.Fatalf("greeting: %q %v", greet, err)
		}
		return c
	}
	drive(dial, srv, k, app)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestPooledSession: a full POP3 session through the pooled build, with
// zero sthread creations on the serving path.
func TestPooledSession(t *testing.T) {
	servePooled(t, 2, 1, Hooks{}, func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App) {
		created := app.Stats.SthreadsCreated.Load()
		c := dial()
		if got := c.cmd(t, "USER alice"); !strings.HasPrefix(got, "+OK") {
			t.Fatal(got)
		}
		if got := c.cmd(t, "PASS sesame"); !strings.HasPrefix(got, "+OK") {
			t.Fatal(got)
		}
		if got := c.cmd(t, "STAT"); got != "+OK 2 messages" {
			t.Fatal(got)
		}
		if got := c.cmd(t, "RETR 1"); !strings.HasPrefix(got, "+OK") {
			t.Fatal(got)
		}
		if body := c.readBody(t); !strings.Contains(body, "hi alice") {
			t.Fatalf("body %q", body)
		}
		if got := c.cmd(t, "QUIT"); !strings.HasPrefix(got, "+OK") {
			t.Fatal(got)
		}
		if got := app.Stats.SthreadsCreated.Load() - created; got != 0 {
			t.Fatalf("%d sthreads created on the pooled serving path, want 0", got)
		}
		if srv.Stats.Logins.Load() != 1 || srv.Stats.Retrieved.Load() != 1 {
			t.Fatalf("logins=%d retrieved=%d, want 1/1",
				srv.Stats.Logins.Load(), srv.Stats.Retrieved.Load())
		}
	})
}

// TestPooledAuthRequired: Figure 1's claim survives pooling — STAT/RETR
// before login fail, a wrong password fails, and a successful login on
// one connection does not leak authentication into the next connection on
// the same slot (the uid is per-connection state, not slot state).
func TestPooledAuthRequired(t *testing.T) {
	servePooled(t, 1, 3, Hooks{}, func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App) {
		c := dial()
		if got := c.cmd(t, "STAT"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("unauthenticated STAT: %s", got)
		}
		if got := c.cmd(t, "RETR 1"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("unauthenticated RETR: %s", got)
		}
		c.cmd(t, "USER alice")
		if got := c.cmd(t, "PASS wrong"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("wrong password: %s", got)
		}
		c.cmd(t, "QUIT")

		// Authenticate on the slot…
		a := dial()
		a.cmd(t, "USER alice")
		if got := a.cmd(t, "PASS sesame"); !strings.HasPrefix(got, "+OK") {
			t.Fatal(got)
		}
		a.cmd(t, "QUIT")

		// …and the next session on the same slot must start logged out.
		b := dial()
		if got := b.cmd(t, "RETR 1"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("slot reuse leaked authentication: %s", got)
		}
		b.cmd(t, "QUIT")
	})
}

// The cross-principal residue scan of the slot's argument block —
// principal A's mailbox bytes in the output field, gone by the time
// principal B's
// handler invocation starts, including after a Resize — lives in the
// shared conformance battery now: see TestServeConformance/Residue
// (conformance_test.go).

// TestPooledOversizedCredentialStaysInBlock: a credential line larger
// than the login gate's cap is rejected by the handler before anything
// is written into the argument block, the session keeps working, and the
// slot arena past the schema's block stays clean (the inter-principal
// scrub never
// reaches there, so a single write would be permanent cross-principal
// residue).
func TestPooledOversizedCredentialStaysInBlock(t *testing.T) {
	var mu sync.Mutex
	var probes [][]byte
	hooks := Hooks{Handler: func(h *sthread.Sthread, ctx *ConnContext) {
		buf := make([]byte, 64)
		h.Read(ctx.ArgAddr+vm.Addr(p3Schema.Size()), buf)
		mu.Lock()
		probes = append(probes, buf)
		mu.Unlock()
	}}
	servePooled(t, 1, 2, hooks, func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App) {
		a := dial()
		a.cmd(t, "USER alice")
		if got := a.cmd(t, "PASS "+strings.Repeat("x", 4*p3Schema.Size())); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("oversized credential accepted: %s", got)
		}
		// The session survives and a legitimate login still works.
		a.cmd(t, "USER alice")
		if got := a.cmd(t, "PASS sesame"); !strings.HasPrefix(got, "+OK") {
			t.Fatalf("login after oversized attempt: %s", got)
		}
		a.cmd(t, "QUIT")

		b := dial()
		b.cmd(t, "QUIT")

		mu.Lock()
		defer mu.Unlock()
		if len(probes) != 2 {
			t.Fatalf("probes = %d, want 2", len(probes))
		}
		for _, p := range probes {
			for j, bb := range p {
				if bb != 0 {
					t.Fatalf("slot arena dirtied past the argument block at +%d (%#x)", j, bb)
				}
			}
		}
	})
}

// TestPooledHandlerCannotReachSecrets: the recycled handler's policy is
// as tight as the one-shot handler's — password database and mail store
// are not granted, so probes fault.
func TestPooledHandlerCannotReachSecrets(t *testing.T) {
	var mu sync.Mutex
	var pwdErr, mailErr error
	probed := false
	hooks := Hooks{Handler: func(h *sthread.Sthread, ctx *ConnContext) {
		mu.Lock()
		defer mu.Unlock()
		if probed {
			return
		}
		probed = true
		buf := make([]byte, 8)
		pwdErr = h.TryRead(ctx.PwdAddr, buf)
		mailErr = h.TryRead(ctx.MailAddr, buf)
	}}
	servePooled(t, 1, 1, hooks, func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App) {
		c := dial()
		c.cmd(t, "QUIT")
		mu.Lock()
		defer mu.Unlock()
		if pwdErr == nil {
			t.Fatal("pooled handler read the password database")
		}
		if mailErr == nil {
			t.Fatal("pooled handler read the mail store")
		}
	})
}

// TestPooledHandoffCarriesNoPassword: a session handed off after PASS
// exports its protocol position and uid, never the password — which the
// handler's argument block still holds after login.
func TestPooledHandoffCarriesNoPassword(t *testing.T) {
	servePooled(t, 2, 1, Hooks{}, func(dial func() *popClient, srv *PooledServer, k *kernel.Kernel, app *sthread.App) {
		c := dial()
		defer c.conn.Close()
		if resp := c.cmd(t, "USER alice"); !strings.HasPrefix(resp, "+OK") {
			t.Fatalf("USER: %q", resp)
		}
		if resp := c.cmd(t, "PASS sesame"); !strings.HasPrefix(resp, "+OK") {
			t.Fatalf("PASS: %q", resp)
		}
		rec, err := srv.HandoffPrincipal(c.conn.LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.State) == 0 {
			t.Fatal("record carries no session state")
		}
		for name, b := range map[string][]byte{"state": rec.State, "wire": rec.Marshal()} {
			if bytes.Contains(b, []byte("sesame")) {
				t.Fatalf("handoff %s carries the password: %q", name, b)
			}
		}
	})
}
