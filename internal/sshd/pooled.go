// The pooled Wedge sshd: the Figure 6 partitioning with every
// per-connection sthread creation amortized away by a gatepool, the same
// treatment httpd.PooledServer gives the SSL server.
//
// The server is a serve.App descriptor on the shared wedge-server runtime
// (internal/serve), which owns the pool lifecycle, accept loop, drain,
// admission control, and conn-id demux. This file contributes the five
// gates each slot carries:
//
//   - "worker": the unprivileged network-facing compartment, created
//     confined (WorkerUID, chrooted to /var/empty). One ring entry serves
//     one connection; the connection's descriptor is granted to the
//     worker when the entry dispatches and revoked when it completes.
//   - "sign", "auth_password", "auth_pubkey", "auth_skey": the Figure 6
//     callgates, recycled. They hold exactly the memory their one-shot
//     counterparts hold (host-key tag for sign, nothing but the slot's
//     argument tag for the auth gates) and run with the creator's disk
//     credentials, as §3.3 requires.
//
// Per-connection state that the one-shot build kept in per-connection Go
// closures — the pubkey nonce, the pending S/Key user, and the worker
// handle the auth gates promote — lives in the runtime's per-invocation
// connection record, demultiplexed by the conn id in the slot's argument
// block and pinned to the slot (serve.Runtime.Lookup), so nothing carries
// over between principals on a reused slot. Successful authentication
// promotes the slot's recycled worker exactly as Figure 6 promotes a
// fresh one; the EndConn hook demotes it back to WorkerUID//var/empty
// before the slot can be released, so a recycled worker never starts a
// connection with a previous principal's identity.

package sshd

import (
	"wedge/internal/gatepool"
	"wedge/internal/minissl"
	"wedge/internal/policy"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// PooledWedge serves SSH connections with zero sthread creations.
type PooledWedge struct {
	Stats WedgeStats

	root *sthread.Sthread
	cfg  ServerConfig

	hostTag  tags.Tag
	hostAddr vm.Addr
	pubTag   tags.Tag
	pubAddr  vm.Addr
	optTag   tags.Tag
	optAddr  vm.Addr

	hooks WedgeHooks

	// The embedded runtime owns the pool, the accept loop (Serve),
	// lifecycle (Drain/Undrain/Close), admission control (SetQueue),
	// sizing (Resize/SetAutoSlots — freshly grown slots get their own
	// confined recycled workers), observability (Snapshot/PoolStats),
	// and the conn-id demux (Lookup) — all promoted onto the server.
	*serve.Runtime[sshPoolConn]
}

// sshPoolConn is one connection's gate-side state: what the one-shot
// build captured in per-connection closures.
type sshPoolConn struct {
	nonce       []byte
	pendingSKey string
}

// poolWorker returns the recycled worker sthread of the lease's slot, for
// the auth gates to promote. The gates run inside the worker's entry,
// where the lease is bound, and a bound lease never changes slot, so the
// worker is resolved once.
func poolWorker(l *gatepool.Lease, name string) func() *sthread.Sthread {
	w := l.Gate(name).Sthread()
	return func() *sthread.Sthread { return w }
}

// NewPooledWedge builds the pooled server with the given number of slots
// (serve.DefaultSlots if slots <= 0). SetupUsers must have provisioned
// /var/empty.
func NewPooledWedge(root *sthread.Sthread, cfg ServerConfig, slots int, hooks WedgeHooks) (*PooledWedge, error) {
	w := &PooledWedge{root: root, cfg: cfg, hooks: hooks}
	keyBlob, err := minissl.MarshalPrivateKey(cfg.HostKey)
	if err != nil {
		return nil, err
	}
	if w.hostTag, w.hostAddr, err = placeSSHBlob(root, keyBlob); err != nil {
		return nil, err
	}
	if w.pubTag, w.pubAddr, err = placeSSHBlob(root, minissl.MarshalPublicKey(&cfg.HostKey.PublicKey)); err != nil {
		releaseTags(root, w.hostTag)
		return nil, err
	}
	if w.optTag, w.optAddr, err = placeSSHBlob(root, []byte(cfg.Options)); err != nil {
		releaseTags(root, w.hostTag, w.pubTag)
		return nil, err
	}
	stats := &w.Stats
	w.Runtime, err = serve.New(root, serve.App[sshPoolConn]{
		Name:   "sshd",
		Slots:  slots,
		Schema: sshSchema,
		Worker: "worker",
		Gates: []gatepool.GateDef{
			{
				Name: "worker",
				SC: policy.New().
					MustMemAdd(w.pubTag, vm.PermRead).
					MustMemAdd(w.optTag, vm.PermRead).
					SetUID(WorkerUID).
					SetRoot("/var/empty"),
				Entry: w.workerEntry,
			},
			{
				Name:    "sign",
				SC:      policy.New().MustMemAdd(w.hostTag, vm.PermRead),
				Entry:   signGateEntry,
				Trusted: w.hostAddr,
			},
			{
				Name: "auth_password",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := w.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return passwordAuth(g, arg, poolWorker(c.Lease, "worker"), stats)
				},
			},
			{
				Name: "auth_pubkey",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := w.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return pubkeyAuth(g, arg, poolWorker(c.Lease, "worker"), &c.State.nonce, stats)
				},
			},
			{
				Name: "auth_skey",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := w.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return skeyAuth(g, arg, poolWorker(c.Lease, "worker"), &c.State.pendingSKey, stats)
				},
			},
		},
		// EndConn runs before the slot is released — and before the next
		// connection of the *same* principal, too: whatever this
		// connection's authentication did to the recycled worker's
		// identity is undone here, because an authenticated uid is
		// per-connection state, not slot affinity. The worker sthread is
		// resolved through the lease here, not at InitConn: a lease that
		// queued for a free ring is bound only when its entry runs.
		EndConn: func(c *serve.Conn[sshPoolConn]) { demoteSSHWorker(root, c.Lease.Gate("worker")) },
	})
	if err != nil {
		// A failed runtime build (e.g. /var/empty not provisioned, so
		// the confined worker cannot be created) must not strand the
		// blob tags.
		releaseTags(root, w.hostTag, w.pubTag, w.optTag)
		return nil, err
	}
	return w, nil
}

// workerEntry is the per-slot recycled worker: one invocation per
// connection, running with the slot's argument tag, the public key and
// options, and the per-invocation connection descriptor — nothing else.
func (w *PooledWedge) workerEntry(s *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	c := w.Lookup(s, arg)
	if c == nil {
		return 0
	}
	if w.hooks.Worker != nil {
		w.hooks.Worker(s, &WedgeConnContext{
			FD:          c.FD,
			HostKeyAddr: w.hostAddr,
			ArgAddr:     arg,
		})
	}
	lease := c.Lease
	viaPool := func(name string) authCall {
		return func(s *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
			return lease.Call(name, s, arg)
		}
	}
	return sshWorkerBody(s, c.FD, arg, &c.State.nonce, w.pubAddr, &w.Stats,
		viaPool("sign"), viaPool("auth_password"), viaPool("auth_pubkey"), viaPool("auth_skey"))
}
