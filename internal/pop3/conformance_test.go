package pop3

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/serve/servetest"
	"wedge/internal/sthread"
)

// TestServeConformance runs the shared serve-app battery against the
// pooled POP3 server, with idle reaping on so the idle cases run too.
// The residue window is the RETR output area at the output field —
// principal A's mailbox bytes, which the pool must scrub before
// principal B's handler invocation can observe them (what
// TestPooledResidue used to check by hand).
func TestServeConformance(t *testing.T) {
	servetest.Run(t, conformanceApp(conformanceIdle))
}

// TestClusterConformance runs the cluster battery: two pooled POP3
// runtimes behind a director, one killed while it holds a greeted
// session mid-protocol. The session's protocol position (greeted, and
// for authed sessions the uid) crosses in the handoff record, so the
// client's transcript stays seamless.
func TestClusterConformance(t *testing.T) {
	servetest.Cluster(t, conformanceApp(0))
}

type popConn struct {
	conn *netsim.Conn
	r    *bufio.Reader
}

// holdPOP reads the greeting — the handler invocation is then
// provably in flight, parked on the first command.
func holdPOP(k *kernel.Kernel) (*popConn, error) {
	conn, err := k.Net.Dial("pop3:110")
	if err != nil {
		return nil, err
	}
	c := &popConn{conn: conn, r: bufio.NewReader(conn)}
	greet, err := c.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(greet, "+OK") {
		conn.Close()
		return nil, fmt.Errorf("greeting %q: %v", greet, err)
	}
	return c, nil
}

func popCmd(c *popConn, line, wantPrefix string) error {
	if _, err := c.conn.Write([]byte(line + "\r\n")); err != nil {
		return err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(resp, wantPrefix) {
		return fmt.Errorf("%s: %q, want %s...", line, resp, wantPrefix)
	}
	return nil
}

// conformanceIdle is the idle-reaping window the battery's pop3 runs
// with: long beside any hold the battery keeps between two exchanges,
// short enough that the idle cases take a fraction of a second.
const conformanceIdle = 50 * time.Millisecond

// conformanceApp is the pop3 adapter; idle is the server's IdleTimeout
// (zero: no reaping, as the cluster battery's handoffs need).
func conformanceApp(idle time.Duration) servetest.App {
	cmd := popCmd
	return servetest.App{
		Name: "pop3",
		Addr: "pop3:110",
		Idle: idle,
		New: func(root *sthread.Sthread, slots int, probe servetest.Probe) (servetest.Runtime, error) {
			hooks := Hooks{}
			if probe != nil {
				hooks.Handler = func(h *sthread.Sthread, ctx *ConnContext) { probe(h, ctx.ArgAddr) }
			}
			return NewPooledConfig(root, testBoxes(), PoolConfig{Slots: slots, IdleTimeout: idle}, hooks)
		},
		Session: func(k *kernel.Kernel) ([]byte, error) {
			c, err := holdPOP(k)
			if err != nil {
				return nil, err
			}
			defer c.conn.Close()
			if err := cmd(c, "USER alice", "+OK"); err != nil {
				return nil, err
			}
			if err := cmd(c, "PASS sesame", "+OK"); err != nil {
				return nil, err
			}
			if err := cmd(c, "RETR 1", "+OK"); err != nil {
				return nil, err
			}
			for { // read the message body through the terminating "."
				line, err := c.r.ReadString('\n')
				if err != nil {
					return nil, err
				}
				if strings.TrimRight(line, "\r\n") == "." {
					break
				}
			}
			if err := cmd(c, "QUIT", "+OK"); err != nil {
				return nil, err
			}
			return []byte("hi alice"), nil // the retrieved mail's bytes
		},
		Hold: func(k *kernel.Kernel) (*servetest.Held, error) {
			c, err := holdPOP(k)
			if err != nil {
				return nil, err
			}
			return &servetest.Held{
				Finish: func() error {
					defer c.conn.Close()
					return cmd(c, "QUIT", "+OK")
				},
				Abandon: func() error { return c.conn.Close() },
				Ping:    func() error { return cmd(c, "USER alice", "+OK") },
			}, nil
		},
		Schema: p3Schema,
		// The password-database and mail-store tags outlive the runtime.
		StaticTags: 2,
	}
}
