// The pooled POP3 server: the Figure 1 partitioning with the
// per-connection client-handler sthread and per-connection gate
// instantiations replaced by a gatepool of long-lived recycled
// equivalents — the same amortization httpd.PooledServer and
// sshd.PooledWedge apply.
//
// The server is a serve.App descriptor on the shared wedge-server runtime
// (internal/serve), which owns the pool lifecycle, accept loop, drain,
// admission control, and conn-id demux. This file contributes the four
// gates each slot carries:
//
//   - "handler": the untrusted parser compartment. One ring entry serves
//     one session; the connection's descriptor is granted to the handler
//     when the entry dispatches and revoked when it completes. It holds
//     nothing but the slot's argument tag.
//   - "login", "stat", "retr": the Figure 1 callgates, recycled, holding
//     the password tag (login) or the mail tag (stat/retr).
//
// The authenticated uid — the cell "only the login component" may set —
// moves from a per-connection tagged memory cell into the runtime's
// gate-side connection record, demultiplexed by the conn id in the slot's
// argument block and pinned to the slot (serve.Runtime.Lookup). The
// handler compartment holds no reference to that state and no memory
// containing it, so the Figure 1 claim is unchanged: an exploited parser
// can neither read mail it has not authenticated for nor forge a login.
// Cross-principal residue in the slot's argument block (retrieved mail
// bytes in the block's output field) is scrubbed by the pool between
// principals.

package pop3

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"wedge/internal/gatepool"
	"wedge/internal/policy"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// PooledServer serves POP3 sessions with zero sthread creations.
type PooledServer struct {
	Stats Stats

	root     *sthread.Sthread
	boxes    []Mailbox
	hooks    Hooks
	pwd      pwdCache
	sessions sync.Pool

	*store
	// The embedded runtime owns the pool, the accept loop (Serve),
	// lifecycle (Drain/Undrain/Close), admission control (SetQueue),
	// sizing (Resize/SetAutoSlots), observability (Snapshot/PoolStats),
	// and the conn-id demux (Lookup) — all promoted onto the server.
	*serve.Runtime[p3PoolConn]
}

// p3PoolConn is one session's gate-side state. uid is what the tagged uid
// cell held in the per-connection build: written only by the login gate,
// read by stat/retr, never reachable from the handler compartment. pos
// is the session's protocol position, kept on the record (rather than on
// the worker's stack) so a live cluster handoff can export it.
type p3PoolConn struct {
	uid int
	pos p3Pos
}

// PoolConfig tunes the pooled server. The zero value means
// serve.DefaultSlots and no idle reaping.
type PoolConfig struct {
	// Slots is the gatepool size (serve.DefaultSlots if <= 0).
	Slots int
	// IdleTimeout, when nonzero, reaps sessions silent for at least this
	// long — the knob a public-facing deployment needs so parked clients
	// cannot pin slots indefinitely.
	IdleTimeout time.Duration
}

// NewPooled provisions the store and builds the pool with the given
// number of slots (serve.DefaultSlots if slots <= 0) and no idle
// reaping.
func NewPooled(root *sthread.Sthread, boxes []Mailbox, slots int, hooks Hooks) (*PooledServer, error) {
	return NewPooledConfig(root, boxes, PoolConfig{Slots: slots}, hooks)
}

// NewPooledConfig is NewPooled with the full tuning surface.
func NewPooledConfig(root *sthread.Sthread, boxes []Mailbox, cfg PoolConfig, hooks Hooks) (*PooledServer, error) {
	st, err := newStore(root, boxes)
	if err != nil {
		return nil, err
	}
	p := &PooledServer{root: root, boxes: boxes, hooks: hooks, store: st}
	p.sessions.New = func() any { return newP3Session() }
	stats := &p.Stats
	p.Runtime, err = serve.New(root, serve.App[p3PoolConn]{
		Name:        "pop3",
		Slots:       cfg.Slots,
		IdleTimeout: cfg.IdleTimeout,
		Schema:      p3Schema,
		Worker:      "handler",
		Export:      exportP3,
		Import:      p.importP3,
		Gates: []gatepool.GateDef{
			{
				Name: "handler",
				// The worker body: drain the slot ring run-to-completion,
				// one session per entry, reusing the command reader
				// across the whole batch instead of allocating one per
				// connection.
				Batch: func(h *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
					// Session scratch is pooled across sweeps, not
					// allocated per sweep: a lightly loaded ring drains
					// one entry per doorbell, which would make per-sweep
					// scratch per-connection scratch.
					sess := p.sessions.Get().(*p3Session)
					for b.More() {
						b.Complete(p.handlerServe(h, b.Arg(), sess))
					}
					p.sessions.Put(sess)
				},
			},
			{
				Name:    "login",
				SC:      policy.New().MustMemAdd(st.pwdTag, vm.PermRead),
				Trusted: st.pwdAddr,
				// The recycled gate parses the password database once
				// through its own tagged view and serves every later
				// login from that private parse (pwdCache); the
				// per-connection build's gate re-reads it each life.
				Entry: func(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					uid, ok := p.pwd.checkLogin(g, arg, trusted, stats)
					if !ok {
						return 0
					}
					c.State.uid = uid
					return 1
				},
			},
			{
				Name: "stat",
				SC:   policy.New().MustMemAdd(st.mailTag, vm.PermRead),
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return st.statFor(c.State.uid)
				},
			},
			{
				Name: "retr",
				SC:   policy.New().MustMemAdd(st.mailTag, vm.PermRead),
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return st.retrFor(g, arg, c.State.uid, stats)
				},
			},
		},
	})
	if err != nil {
		st.release(root) // a failed runtime build must not strand the store
		return nil, err
	}
	return p, nil
}

// p3ExportVersion versions the pop3 handoff payload.
const p3ExportVersion = 1

// exportP3 serializes a session for cluster handoff: the authenticated
// uid and the protocol position — and nothing else. The password
// database and the mail store never ride a record: the importing runtime
// reaches both through its own gates, and the wire sees only what the
// handler compartment could already name.
func exportP3(c *serve.Conn[p3PoolConn]) []byte {
	st := &c.State
	var flags byte
	if st.pos.Greeted {
		flags |= 1
	}
	if st.pos.Authed {
		flags |= 2
	}
	out := make([]byte, 0, 7+len(st.pos.User))
	out = append(out, p3ExportVersion, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(st.uid))
	u := st.pos.User
	if len(u) > 255 {
		u = u[:255] // a pending USER longer than this cannot authenticate anyway
	}
	out = append(out, byte(len(u)))
	out = append(out, u...)
	return out
}

// importP3 restores a handed-off session. The payload crossed the trust
// boundary, so every field is validated before use — most importantly
// the uid, which is an index into the mailbox store: a forged or stale
// uid must be refused here, not discovered by the stat gate.
func (p *PooledServer) importP3(c *serve.Conn[p3PoolConn], rec *serve.HandoffRecord) error {
	b := rec.State
	if len(b) < 7 {
		return fmt.Errorf("pop3: import: truncated payload (%d bytes)", len(b))
	}
	if b[0] != p3ExportVersion {
		return fmt.Errorf("pop3: import: version %d", b[0])
	}
	flags := b[1]
	uid := int(binary.LittleEndian.Uint32(b[2:]))
	ulen := int(b[6])
	if len(b) != 7+ulen {
		return fmt.Errorf("pop3: import: payload length %d, want %d", len(b), 7+ulen)
	}
	authed := flags&2 != 0
	if authed {
		known := false
		for i := range p.boxes {
			if p.boxes[i].UID == uid && uid != 0 {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("pop3: import: uid %d not in this store", uid)
		}
	}
	if !authed {
		uid = 0
	}
	c.State.uid = uid
	c.State.pos = p3Pos{
		Greeted: flags&1 != 0,
		Authed:  authed,
		User:    string(b[7:]),
	}
	return nil
}

// handlerServe is the per-slot client handler serving one session: it
// runs with the slot's argument tag and the entry's connection
// descriptor — nothing else — against caller-owned scratch, which the
// worker body shares across every entry in a sweep.
func (p *PooledServer) handlerServe(h *sthread.Sthread, arg vm.Addr, sess *p3Session) vm.Addr {
	c := p.Lookup(h, arg)
	if c == nil {
		return 0
	}
	if p.hooks.Handler != nil {
		p.hooks.Handler(h, &ConnContext{
			FD:      c.FD,
			PwdAddr: p.pwdAddr, MailAddr: p.mailBase,
			ArgAddr: arg,
		})
	}
	lease := c.Lease
	viaPool := func(name string) p3Call {
		return func(h *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
			return lease.Call(name, h, arg)
		}
	}
	return pop3HandlerSession(h, c.FD, arg, sess, &c.State.pos, viaPool("login"), viaPool("stat"), viaPool("retr"))
}
