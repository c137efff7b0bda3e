// The pooled privsep monitor: the Provos-style monitor's narrow request
// interface (privsep.go) re-expressed as pooled recycled callgates on the
// shared wedge-server runtime — the fourth serve.App, so the paper's §5.2
// privsep-vs-wedge comparison runs under the same accept loop, drain,
// queue, and auto-slots machinery as httpd, sshd, and pop3.
//
// Where Privsep forks one unprivileged slave per connection and serves its
// monitor requests over channel IPC, PooledPrivsep keeps both halves
// long-lived: each pool slot carries a confined recycled "slave" worker
// (WorkerUID, chrooted to /var/empty — one invocation per connection, the
// descriptor a per-invocation argument) and one recycled gate per monitor
// operation:
//
//   - "getpwnam", "checkpass": the two-step password protocol of portable
//     OpenSSH, kept as two separate monitor entry points.
//   - "sign": the host-key signature, holding the host-key tag (the gate
//     hashes the input itself — no signing oracle).
//   - "skeychal", "skeyverify": the S/Key challenge/response pair, with
//     the pending username in the connection's gate-side record.
//
// Both §5.2 privsep leaks are closed by the re-expression, which is the
// point of the contrast:
//
//   - The fork-based monitor's getpwnam reply distinguishes valid from
//     invalid usernames (the probe "remains in today's portable OpenSSH
//     4.7"). The pooled getpwnam gate fabricates a dummy passwd structure
//     for unknown users — same reply shape, nothing learnable — and
//     skeychal serves a deterministic dummy challenge, exactly as the
//     Wedge auth gates do.
//   - Fork-inherited memory residue (the PAM scratch) cannot exist: the
//     slave is not a fork of the monitor. PAM scratch lives in the
//     checkpass gate's private heap behind tag isolation, and the slave's
//     reachable memory is the slot's argument tag plus the public-key
//     blob.
//
// Successful authentication promotes the slot's recycled slave (uid and
// filesystem root) from inside the monitor gate — the only path to a
// logged-in state — and the EndConn hook demotes it before the slot can
// pass to another principal.

package sshd

import (
	"fmt"
	"strings"

	"wedge/internal/gatepool"
	"wedge/internal/minissl"
	"wedge/internal/policy"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// PooledPrivsep serves privilege-separated SSH sessions with zero sthread
// creations on the serving path.
type PooledPrivsep struct {
	Stats PrivsepStats

	root *sthread.Sthread
	cfg  ServerConfig

	hostTag  tags.Tag
	hostAddr vm.Addr
	pubTag   tags.Tag
	pubAddr  vm.Addr

	hooks WedgeHooks

	// The embedded runtime owns the pool, the accept loop (Serve),
	// lifecycle (Drain/Undrain/Close), admission control (SetQueue),
	// sizing (Resize/SetAutoSlots), observability (Snapshot/PoolStats),
	// and the conn-id demux (Lookup) — all promoted onto the server.
	*serve.Runtime[privsepPoolConn]
}

// privsepPoolConn is one connection's gate-side monitor state: what the
// fork-based build kept implicitly in the forked slave's lifetime.
type privsepPoolConn struct {
	pendingSKey string
}

// demoteSSHWorker strips any promotion an auth/monitor gate performed on a
// slot's recycled worker, restoring the confined identity it was created
// with. Shared by the pooled Wedge build and the pooled privsep monitor.
// A nil worker — the lease never bound a ring, so no worker ran for the
// connection — has nothing to undo.
func demoteSSHWorker(root *sthread.Sthread, worker *sthread.Recycled) {
	if worker == nil {
		return
	}
	root.Task.ChrootOn(worker.Sthread().Task, "/var/empty")
	root.Task.SetUIDOn(worker.Sthread().Task, WorkerUID)
}

// NewPooledPrivsep builds the pooled privsep server with the given number
// of slots (serve.DefaultSlots if slots <= 0). SetupUsers must have
// provisioned /var/empty. Hooks inject exploit code into the slave
// compartment, as in the other pooled builds.
func NewPooledPrivsep(root *sthread.Sthread, cfg ServerConfig, slots int, hooks WedgeHooks) (*PooledPrivsep, error) {
	p := &PooledPrivsep{root: root, cfg: cfg, hooks: hooks}
	keyBlob, err := minissl.MarshalPrivateKey(cfg.HostKey)
	if err != nil {
		return nil, err
	}
	if p.hostTag, p.hostAddr, err = placeSSHBlob(root, keyBlob); err != nil {
		return nil, err
	}
	if p.pubTag, p.pubAddr, err = placeSSHBlob(root, minissl.MarshalPublicKey(&cfg.HostKey.PublicKey)); err != nil {
		releaseTags(root, p.hostTag)
		return nil, err
	}
	p.Runtime, err = serve.New(root, serve.App[privsepPoolConn]{
		Name:   "privsep",
		Slots:  slots,
		Schema: sshSchema,
		Worker: "slave",
		Gates: []gatepool.GateDef{
			{
				Name: "slave",
				SC: policy.New().
					MustMemAdd(p.pubTag, vm.PermRead).
					SetUID(WorkerUID).
					SetRoot("/var/empty"),
				Entry: p.slaveEntry,
			},
			{
				Name:  "getpwnam",
				Entry: p.getpwnamEntry,
			},
			{
				Name: "checkpass",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return p.checkpassEntry(g, arg, c)
				},
			},
			{
				Name:    "sign",
				SC:      policy.New().MustMemAdd(p.hostTag, vm.PermRead),
				Entry:   p.signEntry,
				Trusted: p.hostAddr,
			},
			{
				Name: "skeychal",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return p.skeychalEntry(g, arg, c)
				},
			},
			{
				Name: "skeyverify",
				Entry: func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
					c := p.Lookup(g, arg)
					if c == nil {
						return 0
					}
					return p.skeyverifyEntry(g, arg, c)
				},
			},
		},
		// EndConn runs before the slot is released: whatever this
		// connection's authentication did to the recycled slave's identity
		// is undone before another principal (or another connection of the
		// same one) can lease the slot. The slave is resolved through the
		// lease here, not at InitConn: a lease that queued for a free
		// ring binds only when its entry runs.
		EndConn: func(c *serve.Conn[privsepPoolConn]) { demoteSSHWorker(root, c.Lease.Gate("slave")) },
	})
	if err != nil {
		releaseTags(root, p.hostTag, p.pubTag)
		return nil, err
	}
	return p, nil
}

// readMonStr decodes the string argument a monitor gate was invoked
// with, bounded to the gate's own input cap through the codec.
func readMonStr(g *sthread.Sthread, arg vm.Addr, max int) (string, bool) {
	buf, err := fStr.LoadMax(g, arg, max)
	if err != nil || len(buf) == 0 {
		return "", false
	}
	return string(buf), true
}

// getpwnamEntry is the monitor's getpwnam. Unlike the fork-based monitor
// — whose reply "either returns NULL if that username does not exist, or
// the passwd structure" — the reply is *identical* for every username:
// always the dummy passwd, known user or not, shadow readable or not.
// The slave never needs the real values pre-auth (checkpass/skeyverify
// write the real uid and home only alongside a successful verdict), so
// writing them here would hand an exploited slave the user-enumeration
// oracle back through the argument block even with the wire replies
// uniform. Shape preserved, content constant, nothing learnable.
func (p *PooledPrivsep) getpwnamEntry(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	p.Stats.MonitorMsgs.Add(1)
	if _, ok := readMonStr(g, arg, sshUserCap); !ok {
		return 0
	}
	fPwFound.Store(g, arg, 1)
	fPwUID.Store(g, arg, WorkerUID)
	fPwHome.StoreTrunc(g, arg, "/nonexistent")
	return 1
}

// checkpassEntry is the monitor's password check: validate user\x00pass
// against /etc/shadow (read with the gate's disk credentials) and, on
// success, promote the slot's recycled slave — the monitor granting the
// logged-in identity, as the fork-based monitor's uid grant does. The
// PAM-style scratch lives in the gate's private heap and is unreachable
// from the slave: no fork, no inherited residue.
func (p *PooledPrivsep) checkpassEntry(g *sthread.Sthread, arg vm.Addr, c *serve.Conn[privsepPoolConn]) vm.Addr {
	p.Stats.MonitorMsgs.Add(1)
	payload, ok := readMonStr(g, arg, sshStrCap)
	if !ok {
		return 0
	}
	user, pass, ok := strings.Cut(payload, "\x00")
	if !ok {
		return 0
	}
	fAuthOK.Store(g, arg, 0)
	// Every rejection below — unreadable shadow included — looks the
	// same to the slave (AuthOK=0) and is counted, so Logins+Fails
	// reconciles with attempts.
	entries, err := readShadow(g)
	if err != nil {
		p.Stats.Fails.Add(1)
		return 1
	}
	entry, found := LookupShadow(entries, user)
	if !found {
		p.Stats.Fails.Add(1)
		return 1
	}
	passOK, _, _ := pamCheck(g, entry, pass)
	if passOK && promote(g, poolWorker(c.Lease, "slave")(), entry.UID, entry.Home) {
		fPwUID.Store(g, arg, entry.UID)
		fPwHome.StoreTrunc(g, arg, entry.Home)
		fAuthOK.Store(g, arg, 1)
		p.Stats.Logins.Add(1)
	} else {
		p.Stats.Fails.Add(1)
	}
	return 1
}

// signEntry is the monitor's host-key signature, counted as a monitor
// message; the body is the shared sign gate (hashes the input itself, so
// the slave gets no signing oracle).
func (p *PooledPrivsep) signEntry(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
	p.Stats.MonitorMsgs.Add(1)
	return signGateEntry(g, arg, trusted)
}

// skeychalEntry serves the S/Key challenge. The fork-based monitor's
// reply leaks existence ("existence leak again"); here unknown users get
// a deterministic dummy challenge with the same shape.
func (p *PooledPrivsep) skeychalEntry(g *sthread.Sthread, arg vm.Addr, c *serve.Conn[privsepPoolConn]) vm.Addr {
	p.Stats.MonitorMsgs.Add(1)
	user, ok := readMonStr(g, arg, sshSKeyCap)
	if !ok {
		return 0
	}
	db, err := readSKeyDB(g)
	if err != nil {
		return 0
	}
	for i := range db {
		if db[i].Name == user {
			c.State.pendingSKey = user
			fChalN.Store(g, arg, uint64(db[i].N))
			return 1
		}
	}
	c.State.pendingSKey = ""
	fChalN.Store(g, arg, SKeyDummyChallenge(user))
	return 1
}

// skeyverifyEntry verifies the S/Key response for the pending user,
// stepping the chain and promoting the slave on success.
func (p *PooledPrivsep) skeyverifyEntry(g *sthread.Sthread, arg vm.Addr, c *serve.Conn[privsepPoolConn]) vm.Addr {
	p.Stats.MonitorMsgs.Add(1)
	fAuthOK.Store(g, arg, 0)
	// Argument validation runs before the pending-user branch: a
	// malformed response must fail identically whether the challenged
	// name was real or dummy, or the gate's return code itself becomes
	// the enumeration oracle for an exploited slave.
	resp, ok := readMonStr(g, arg, sshSKeyCap)
	if !ok {
		return 0
	}
	user := c.State.pendingSKey
	if user == "" {
		p.Stats.Fails.Add(1)
		return 1 // dummy-challenged: always fails, same shape
	}
	db, err := readSKeyDB(g)
	if err != nil {
		p.Stats.Fails.Add(1)
		return 1
	}
	for i := range db {
		if db[i].Name == user {
			if VerifySKey(&db[i], []byte(resp)) {
				writeSKeyDB(g, db)
				entries, _ := readShadow(g)
				if entry, found := LookupShadow(entries, user); found &&
					promote(g, poolWorker(c.Lease, "slave")(), entry.UID, entry.Home) {
					fPwUID.Store(g, arg, entry.UID)
					fPwHome.StoreTrunc(g, arg, entry.Home)
					fAuthOK.Store(g, arg, 1)
					p.Stats.Logins.Add(1)
					return 1
				}
			}
			p.Stats.Fails.Add(1)
			return 1
		}
	}
	p.Stats.Fails.Add(1)
	return 1
}

// slaveEntry is the per-slot recycled slave: the unprivileged,
// network-facing half of privilege separation, one invocation per
// connection, reaching the monitor only through the slot's gates.
func (p *PooledPrivsep) slaveEntry(s *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
	c := p.Lookup(s, arg)
	if c == nil {
		return 0
	}
	if p.hooks.Worker != nil {
		p.hooks.Worker(s, &WedgeConnContext{
			FD:          c.FD,
			HostKeyAddr: p.hostAddr,
			ArgAddr:     arg,
		})
	}
	lease := c.Lease
	mon := func(name string) authCall {
		return func(s *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
			return lease.Call(name, s, arg)
		}
	}
	return privsepSlaveBody(s, c.FD, arg, p.pubAddr,
		mon("sign"), mon("getpwnam"), mon("checkpass"), mon("skeychal"), mon("skeyverify"))
}

// callMonStr marshals a string argument through the codec (bounded to
// the gate's own input cap — an oversized client payload is a typed
// protocol failure, never a write into the slot arena) and invokes one
// monitor gate.
func callMonStr(s *sthread.Sthread, call authCall, arg vm.Addr, op uint64, payload []byte, max int) bool {
	if !storeArg(s, arg, op, payload, max) {
		return false
	}
	ret, err := call(s, arg)
	return err == nil && ret == 1
}

// privsepSlaveBody speaks the slave's half of the privsep protocol
// (privsep.go slaveBody), with every monitor request a pooled recycled
// gate call instead of channel IPC to a forked parent.
func privsepSlaveBody(s *sthread.Sthread, fd int, arg vm.Addr, pubAddr vm.Addr,
	sign, getpwnam, checkpass, skeychal, skeyverify authCall) vm.Addr {
	stream := fdStream{s, fd}

	if err := WriteFrame(stream, MsgVersion, []byte(Version)); err != nil {
		return 0
	}
	if err := WriteFrame(stream, MsgHostKey, loadBlob(s, pubAddr)); err != nil {
		return 0
	}
	nonce, err := ExpectFrame(stream, MsgSignReq)
	if err != nil {
		return 0
	}
	if !callMonStr(s, sign, arg, sshOpSign, nonce, sshSignCap) {
		return 0
	}
	sig, err := fSig.Load(s, arg)
	if err != nil || len(sig) == 0 {
		return 0
	}
	if err := WriteFrame(stream, MsgSignResp, sig); err != nil {
		return 0
	}

	authed := false
	var uid int
	for !authed {
		typ, body, err := ReadFrame(stream)
		if err != nil {
			return 0
		}
		switch typ {
		case MsgAuthPass:
			user, _, ok := strings.Cut(string(body), "\x00")
			if !ok {
				return 0
			}
			// Two-step protocol, as in portable OpenSSH: first getpwnam,
			// then the password check. The getpwnam reply no longer
			// distinguishes unknown users, so the slave always proceeds.
			if !callMonStr(s, getpwnam, arg, sshOpPassword, []byte(user), sshUserCap) {
				return 0
			}
			if !callMonStr(s, checkpass, arg, sshOpPassword, body, sshStrCap) {
				return 0
			}
			if fAuthOK.Load(s, arg) == 1 {
				authed = true
				uid = fPwUID.Load(s, arg)
				WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", uid)))
			} else {
				WriteFrame(stream, MsgAuthFail, []byte("permission denied"))
			}

		case MsgAuthSKey:
			if !callMonStr(s, skeychal, arg, sshOpSKeyChal, body, sshSKeyCap) {
				return 0
			}
			n := fChalN.Load(s, arg)
			chal := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
			WriteFrame(stream, MsgSKeyChal, chal)
			resp, err := ExpectFrame(stream, MsgSKeyReply)
			if err != nil {
				return 0
			}
			if !callMonStr(s, skeyverify, arg, sshOpSKeyVerify, resp, sshSKeyCap) {
				return 0
			}
			if fAuthOK.Load(s, arg) == 1 {
				authed = true
				uid = fPwUID.Load(s, arg)
				WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", uid)))
			} else {
				WriteFrame(stream, MsgAuthFail, []byte("permission denied"))
			}

		case MsgExit:
			return 1
		default:
			return 0
		}
	}

	// Post-auth: the monitor promoted the slave to the user's uid with
	// the home directory as its filesystem root, so the shared scp
	// session serves uploads with the promoted identity — no ambient
	// authority, where the fork-based slave synthesized the uid's
	// credentials itself.
	_ = uid
	return scpSessionLoop(s, stream)
}
