// The pooled variant: the Recycled partitioning with its single shared
// gate replaced by a gatepool — and the per-connection worker sthread
// replaced by a per-slot recycled worker, the same amortization the paper
// applies to callgates (§3.3) applied one layer up.
//
// The server is a serve.App descriptor; the runtime (internal/serve) owns
// every piece of serving machinery — pool lifecycle, accept loop, drain,
// admission control, conn-id demux — and this file contributes only what
// is httpd's: the two gates each slot carries and their entry points.
//
//   - "worker": the unprivileged network-facing compartment. One ring
//     entry serves one connection; the connection's descriptor is granted
//     to the worker when the entry dispatches and revoked when it
//     completes.
//   - "setup": the setup_session_key gate, holding the private-key tag.
//
// A connection's principal (its network address) shards it onto a home
// slot; the pool steals an idle slot when the home slot is busy and
// scrubs the slot's argument block whenever it passes between principals.
// Relative to RecycledServer this removes both scaling bottlenecks: the
// single gate every connection serialized through, and the sthread
// creation still paid per connection. Relative isolation: connections
// leased different slots share no argument memory at all (per-slot tags),
// and the §3.3 cross-principal residue is scrubbed — but like any
// recycled compartment, a slot's sthread-private heaps persist across the
// principals sharded onto it (the PAM scratch lesson, §5.2). See
// TestPooledCrossConnectionResidue for the contrast with the recycled
// variant's shared-tag leak.

package httpd

import (
	"crypto/rsa"
	"wedge/internal/gatepool"
	"wedge/internal/minissl"
	"wedge/internal/policy"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// DefaultPoolSlots sizes a PooledServer when the caller does not. It is
// the runtime's one shared policy (serve.DefaultSlots): twice the host
// parallelism, floored at two.
func DefaultPoolSlots() int { return serve.DefaultSlots() }

// PooledServer scales the recycled-callgate design across a gate pool.
type PooledServer struct {
	Stats Stats

	root    *sthread.Sthread
	docroot string

	privTag  tags.Tag
	privAddr vm.Addr
	pubTag   tags.Tag
	pubAddr  vm.Addr

	cache *minissl.SessionCache
	hooks Hooks

	// The embedded runtime owns the pool, the accept loop
	// (Serve), lifecycle (Drain/Undrain/Close), admission control
	// (SetQueue), sizing (Resize/SetAutoSlots), observability
	// (Snapshot/PoolStats), and the conn-id demux (Lookup) — all
	// promoted onto the server. The per-connection state is the setup
	// gate's handshake record.
	*serve.Runtime[setupGateState]
}

// NewPooled builds the pooled server with the given number of slots
// (serve.DefaultSlots if slots <= 0); Resize adjusts it at runtime.
func NewPooled(root *sthread.Sthread, docroot string, priv *rsa.PrivateKey, cache bool, slots int, hooks Hooks) (*PooledServer, error) {
	p := &PooledServer{root: root, docroot: docroot, hooks: hooks}
	if cache {
		p.cache = minissl.NewSessionCache()
	}
	keyBlob, err := minissl.MarshalPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	if p.privTag, p.privAddr, err = placeBlob(root, keyBlob); err != nil {
		return nil, err
	}
	if p.pubTag, p.pubAddr, err = placeBlob(root, minissl.MarshalPublicKey(&priv.PublicKey)); err != nil {
		root.App().Tags.TagDelete(p.privTag)
		return nil, err
	}
	p.Runtime, err = serve.New(root, serve.App[setupGateState]{
		Name:   "httpd",
		Slots:  slots,
		Schema: argSchema,
		Worker: "worker",
		Gates: []gatepool.GateDef{
			{
				Name:  "worker",
				SC:    policy.New().MustMemAdd(p.pubTag, vm.PermRead),
				Entry: p.workerEntry,
			},
			{
				Name:    "setup",
				SC:      policy.New().MustMemAdd(p.privTag, vm.PermRead),
				Entry:   p.setupEntry,
				Trusted: p.privAddr,
			},
		},
		Finish: func(_ *serve.Conn[setupGateState], ret vm.Addr, err error) error {
			if err != nil {
				p.Stats.Errors.Add(1)
				return fmtErr("pooled", "worker", err)
			}
			if ret != 1 {
				p.Stats.Errors.Add(1)
				return fmtErr("pooled", "worker", ErrHandshakeFailed)
			}
			p.Stats.Requests.Add(1)
			return nil
		},
	})
	if err != nil {
		// A failed runtime build must not strand the blob tags.
		root.App().Tags.TagDelete(p.privTag)
		root.App().Tags.TagDelete(p.pubTag)
		return nil, err
	}
	return p, nil
}

// workerEntry is the per-slot recycled worker: one invocation per
// connection, running with the slot's argument tag, the public key, and
// the per-invocation argument descriptor — nothing else. The runtime's
// Lookup applies the slot pin: a forged conn id or fd word cannot reach
// another slot's connection.
func (p *PooledServer) workerEntry(w *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	c := p.Lookup(w, arg)
	if c == nil {
		return 0
	}
	if p.hooks.Worker != nil {
		p.hooks.Worker(w, &ConnContext{
			FD:          c.FD,
			PrivKeyAddr: p.privAddr,
			ArgAddr:     arg,
		})
	}
	lease := c.Lease
	setup := func(w *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
		return lease.Call("setup", w, arg)
	}
	p.Stats.GateCalls.Add(1) // the worker invocation itself
	return httpdWorkerBody(w, c.FD, arg, setup, &p.Stats, p.pubAddr, p.docroot)
}

// setupEntry is RecycledServer.gateBody against the pooled connection
// state: the shared setupOps demultiplexed by conn id, with the private
// key reachable through the kernel-held trusted argument. The conn id is
// worker-supplied and untrusted; the runtime's Lookup anchors the state
// at exactly this invocation's argument block, keeping cross-slot
// handshake state unreachable, as the pool's isolation story promises.
func (p *PooledServer) setupEntry(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
	c := p.Lookup(g, arg)
	if c == nil {
		return 0
	}
	return setupOps(g, arg, trusted, &c.State, p.cache)
}
