// The Wedge partitioning of OpenSSH (Figure 6, §5.2).
//
// Per connection, the master spawns one worker sthread that:
//   - runs as an unprivileged uid with its filesystem root set to an
//     empty directory;
//   - holds read access to the server's public key and configuration
//     options, and read-write access to the connection descriptor;
//   - can reach the host private key only through the sign callgate,
//     which signs a hash it computes itself (no signing/decryption
//     oracle);
//   - can reach the user database only through the three authentication
//     callgates (password, public-key, S/Key), each of which reads
//     /etc/shadow or the S/Key database directly from disk with the
//     *creator's* filesystem root, and, on success, changes the worker's
//     uid and filesystem root — the only way the worker ever becomes a
//     logged-in user.
//
// Both of the paper's lessons are implemented: the password callgate
// returns a dummy passwd structure for unknown usernames (no probe
// oracle), and PAM-style scratch allocations happen inside the callgate's
// private memory, which evaporates with the gate (no fork inheritance).
//
// The gate bodies and the worker protocol live in package-level functions
// shared with the pooled variant (pooled.go), which replaces the
// per-connection worker sthread and per-connection gate instantiations
// with a gatepool of long-lived recycled equivalents.

package sshd

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"wedge/internal/gateabi"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// WorkerUID is the unprivileged uid workers start as.
const WorkerUID = 99

// The auth-gate argument-block schema (in the per-connection tag, or the
// slot's argument tag in the pooled variant). The layout is computed from
// these declarations; the typed handles are the only way worker, slave,
// and gate code touches the block. Per-operation input caps narrower than
// the string field's capacity (sign 256, S/Key 128) are enforced by the
// codec's StoreMax/LoadMax — still typed bounds, never call-site offset
// arithmetic.
const (
	sshStrCap  = 512 // user\x00pass / user / data-to-sign bound (password, pubkey ops)
	sshSignCap = 256 // sign-op input and signature bound
	sshSKeyCap = 128 // S/Key username and response bound
	sshUserCap = 128 // bare-username bound (the privsep monitor's getpwnam)
)

var (
	sshSchemaB = gateabi.NewSchema("sshd")

	fOp      = gateabi.U64(sshSchemaB, "op") // sshOpPassword..sshOpSign
	fStr     = gateabi.Bytes(sshSchemaB, "str", sshStrCap)
	fSig     = gateabi.Bytes(sshSchemaB, "sig", sshSignCap) // gate output: signature
	fPwFound = gateabi.U64(sshSchemaB, "pw_found")          // gate output: passwd struct (dummy on unknown user)
	fPwUID   = gateabi.Word[int](sshSchemaB, "pw_uid")      // gate output: uid granted on success
	fPwHome  = gateabi.String(sshSchemaB, "pw_home", 64)    // informational; promotion uses the full path
	fAuthOK  = gateabi.U64(sshSchemaB, "auth_ok")           // gate output: authentication verdict
	fChalN   = gateabi.U64(sshSchemaB, "skey_chal")         // gate output: S/Key challenge
	// The demux words register by declaration; the serve runtime reaches
	// them through Schema.ConnIDOff/FDOff, not through handles.
	_ = gateabi.ConnID(sshSchemaB)
	_ = gateabi.FD(sshSchemaB)

	sshSchema = sshSchemaB.Seal()
)

// GateSchema exposes the argument-block schema (for the conformance
// battery and the cross-app FuzzGateABI harness). The pooled privsep
// monitor serves the same block layout.
func GateSchema() *gateabi.Schema { return sshSchema }

const (
	sshOpPassword   = 1
	sshOpPubkey     = 2
	sshOpSKeyChal   = 3
	sshOpSKeyVerify = 4
	sshOpSign       = 5
)

// WedgeStats counts Wedge-variant activity.
type WedgeStats struct {
	Logins    atomic.Uint64
	Fails     atomic.Uint64
	GateCalls atomic.Uint64
	Workers   atomic.Uint64
}

// WedgeHooks injects exploit code into the worker compartment.
type WedgeHooks struct {
	// Worker runs inside the worker sthread before the protocol starts.
	Worker func(s *sthread.Sthread, ctx *WedgeConnContext)
}

// WedgeConnContext is the compartment knowledge an injected exploit has.
type WedgeConnContext struct {
	FD          int
	HostKeyAddr vm.Addr // tagged; not granted to the worker
	ArgAddr     vm.Addr
	Gates       map[string]*policy.GateSpec // nil in the pooled variant
}

// Wedge is the Figure 6 server.
type Wedge struct {
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
}

// placeSSHBlob lands a length-prefixed blob in a fresh tag. On failure
// no tag is left behind.
func placeSSHBlob(root *sthread.Sthread, blob []byte) (tags.Tag, vm.Addr, error) {
	tag, err := root.App().Tags.TagNew(root.Task)
	if err != nil {
		return 0, 0, err
	}
	addr, err := root.Smalloc(tag, 8+len(blob))
	if err != nil {
		root.App().Tags.TagDelete(tag)
		return 0, 0, err
	}
	root.Store64(addr, uint64(len(blob)))
	root.Write(addr+8, blob)
	return tag, addr, nil
}

// releaseTags retires the tags a failed server constructor had already
// provisioned, so a caller that retries after a transient failure does
// not accumulate stranded tags.
func releaseTags(root *sthread.Sthread, ts ...tags.Tag) {
	for _, t := range ts {
		if t != tags.NoTag {
			root.App().Tags.TagDelete(t)
		}
	}
}

// NewWedge builds the partitioned server: host key, public key, and
// options each land in their own tag.
func NewWedge(root *sthread.Sthread, cfg ServerConfig, hooks WedgeHooks) (*Wedge, error) {
	w := &Wedge{root: root, cfg: cfg, hooks: hooks}
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
	return w, nil
}

func loadBlob(s *sthread.Sthread, addr vm.Addr) []byte {
	n := s.Load64(addr)
	out := make([]byte, n)
	s.Read(addr+8, out)
	return out
}

// signGateEntry signs sha256(data) with the host key. The hash is
// computed by the gate over the caller-supplied bytes; only the hash is
// signed. Stateless, so the one-shot and pooled variants share it as-is.
func signGateEntry(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
	data, err := fStr.LoadMax(g, arg, sshSignCap)
	if err != nil || len(data) == 0 {
		return 0
	}
	priv, err := minissl.UnmarshalPrivateKey(loadBlob(g, trusted))
	if err != nil {
		return 0
	}
	sig, err := SignHash(priv, data)
	if err != nil {
		return 0
	}
	// The codec bounds the signature to its field: an oversized host key
	// cannot make the gate scribble over the passwd/verdict words — or,
	// in the pooled build, the conn-id demux words.
	if fSig.Store(g, arg, sig) != nil {
		return 0
	}
	return 1
}

// promote changes the worker's uid and filesystem root from inside a gate
// (creator credentials: uid 0, true root) — the Privtrans idiom the paper
// adopts. The worker has no other path to privilege.
func promote(g *sthread.Sthread, worker *sthread.Sthread, uid int, home string) bool {
	if err := g.Task.ChrootOn(worker.Task, home); err != nil {
		return false
	}
	if err := g.Task.SetUIDOn(worker.Task, uid); err != nil {
		return false
	}
	return true
}

// passwordAuth is the password gate's body: authenticate a
// username/password pair against /etc/shadow (read with the gate's disk
// credentials) and, on success, promote the worker. For unknown usernames
// it fabricates a dummy passwd structure so the worker-visible reply
// shape is identical (§5.2's first lesson).
func passwordAuth(g *sthread.Sthread, arg vm.Addr, worker func() *sthread.Sthread, stats *WedgeStats) vm.Addr {
	buf, err := fStr.Load(g, arg)
	if err != nil || len(buf) == 0 {
		return 0
	}
	user, pass, ok := strings.Cut(string(buf), "\x00")
	if !ok {
		return 0
	}
	entries, err := readShadow(g)
	if err != nil {
		return 0
	}
	entry, found := LookupShadow(entries, user)
	if !found {
		// Dummy passwd: same shape, nothing learnable.
		fPwFound.Store(g, arg, 1)
		fPwUID.Store(g, arg, WorkerUID)
		fPwHome.StoreTrunc(g, arg, "/nonexistent")
		fAuthOK.Store(g, arg, 0)
		return 1
	}
	fPwFound.Store(g, arg, 1)
	fPwUID.Store(g, arg, entry.UID)
	fPwHome.StoreTrunc(g, arg, entry.Home)

	// The PAM-style scratch lives in the gate's private heap and
	// dies with the gate: the §5.2 second lesson.
	passOK, _, _ := pamCheck(g, entry, pass)
	if passOK && promote(g, worker(), entry.UID, entry.Home) {
		fAuthOK.Store(g, arg, 1)
		stats.Logins.Add(1)
	} else {
		fAuthOK.Store(g, arg, 0)
		stats.Fails.Add(1)
	}
	return 1
}

// pubkeyAuth is the public-key gate's body: verify a signature over the
// session nonce against the user's authorized key and promote on success.
func pubkeyAuth(g *sthread.Sthread, arg vm.Addr, worker func() *sthread.Sthread, nonce *[]byte, stats *WedgeStats) vm.Addr {
	buf, err := fStr.Load(g, arg)
	if err != nil || len(buf) == 0 {
		return 0
	}
	user, sig, ok := strings.Cut(string(buf), "\x00")
	if !ok {
		return 0
	}
	fAuthOK.Store(g, arg, 0)
	entries, err := readShadow(g)
	if err != nil {
		return 1
	}
	entry, found := LookupShadow(entries, user)
	if !found {
		stats.Fails.Add(1)
		return 1
	}
	keyData, err := g.Task.Kernel().FS.ReadFile(g.Task.Cred(), g.Task.Root,
		entry.Home+"/.ssh/authorized_keys")
	if err != nil {
		stats.Fails.Add(1)
		return 1
	}
	pub, err := minissl.UnmarshalPublicKey(keyData)
	if err != nil {
		stats.Fails.Add(1)
		return 1
	}
	if VerifyHash(pub, append([]byte("pubkey:"+user+":"), *nonce...), []byte(sig)) != nil {
		stats.Fails.Add(1)
		return 1
	}
	if promote(g, worker(), entry.UID, entry.Home) {
		fAuthOK.Store(g, arg, 1)
		stats.Logins.Add(1)
	}
	return 1
}

// skeyAuth is the S/Key gate's body: serve challenges and verifications.
// Unknown usernames receive a deterministic dummy challenge rather than
// an error — fixing the information leak of [14] with the same mechanism
// as the password gate's dummy passwd.
func skeyAuth(g *sthread.Sthread, arg vm.Addr, worker func() *sthread.Sthread, pending *string, stats *WedgeStats) vm.Addr {
	switch fOp.Load(g, arg) {
	case sshOpSKeyChal:
		buf, err := fStr.LoadMax(g, arg, sshSKeyCap)
		if err != nil || len(buf) == 0 {
			return 0
		}
		user := string(buf)
		db, err := readSKeyDB(g)
		if err != nil {
			return 0
		}
		for i := range db {
			if db[i].Name == user {
				*pending = user
				fChalN.Store(g, arg, uint64(db[i].N))
				return 1
			}
		}
		// Dummy challenge: plausible chain position, keyed so repeated
		// probes are consistent but not predictable from the source.
		*pending = ""
		fChalN.Store(g, arg, SKeyDummyChallenge(user))
		return 1

	case sshOpSKeyVerify:
		fAuthOK.Store(g, arg, 0)
		user := *pending
		if user == "" {
			stats.Fails.Add(1)
			return 1 // dummy-challenged: always fails, same shape
		}
		resp, err := fStr.LoadMax(g, arg, sshSKeyCap)
		if err != nil || len(resp) == 0 {
			return 0
		}
		db, err := readSKeyDB(g)
		if err != nil {
			return 1
		}
		for i := range db {
			if db[i].Name == user {
				if VerifySKey(&db[i], resp) {
					writeSKeyDB(g, db)
					entries, _ := readShadow(g)
					if entry, found := LookupShadow(entries, user); found &&
						promote(g, worker(), entry.UID, entry.Home) {
						fPwUID.Store(g, arg, entry.UID)
						fPwHome.StoreTrunc(g, arg, entry.Home)
						fAuthOK.Store(g, arg, 1)
						stats.Logins.Add(1)
						return 1
					}
				}
				stats.Fails.Add(1)
				return 1
			}
		}
		stats.Fails.Add(1)
		return 1
	}
	return 0
}

// ServeConn spawns the per-connection worker (Figure 6) and blocks until
// it exits.
func (w *Wedge) ServeConn(conn *netsim.Conn) error {
	root := w.root
	fd := root.Task.InstallFD(conn, kernel.FDRW)
	defer root.Task.CloseFD(fd)

	connTag, err := root.App().Tags.TagNew(root.Task)
	if err != nil {
		return err
	}
	defer root.App().Tags.TagDelete(connTag)
	argBuf, err := root.Smalloc(connTag, sshSchema.Size())
	if err != nil {
		return err
	}

	// The auth gates need the worker's handle to promote it on success,
	// but the handle only exists once Create has already started the
	// worker; hand it across with a first-use-blocking accessor so a
	// gate invoked before this goroutine resumes still sees it.
	workerCh := make(chan *sthread.Sthread, 1)
	workerRef := sync.OnceValue(func() *sthread.Sthread { return <-workerCh })
	var nonce []byte
	var pendingSKey string
	stats := &w.Stats

	diskSC := func() *policy.SC { return policy.New().MustMemAdd(connTag, vm.PermRW) }
	signSC := policy.New().
		MustMemAdd(w.hostTag, vm.PermRead).
		MustMemAdd(connTag, vm.PermRW)

	workerSC := policy.New().
		MustMemAdd(connTag, vm.PermRW).
		MustMemAdd(w.pubTag, vm.PermRead).
		MustMemAdd(w.optTag, vm.PermRead).
		FDAdd(fd, kernel.FDRW).
		SetUID(WorkerUID).
		SetRoot("/var/empty")
	workerSC.GateAdd(sthread.GateFunc(signGateEntry), signSC, w.hostAddr, "sign")
	workerSC.GateAdd(sthread.GateFunc(func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
		return passwordAuth(g, arg, workerRef, stats)
	}), diskSC(), 0, "auth_password")
	workerSC.GateAdd(sthread.GateFunc(func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
		return pubkeyAuth(g, arg, workerRef, &nonce, stats)
	}), diskSC(), 0, "auth_pubkey")
	workerSC.GateAdd(sthread.GateFunc(func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
		return skeyAuth(g, arg, workerRef, &pendingSKey, stats)
	}), diskSC(), 0, "auth_skey")
	signSpec := workerSC.Gates[0]
	passSpec := workerSC.Gates[1]
	pubSpec := workerSC.Gates[2]
	skeySpec := workerSC.Gates[3]

	worker, err := root.CreateNamed("ssh-worker", workerSC, func(s *sthread.Sthread, arg vm.Addr) vm.Addr {
		if w.hooks.Worker != nil {
			w.hooks.Worker(s, &WedgeConnContext{
				FD:          fd,
				HostKeyAddr: w.hostAddr,
				ArgAddr:     arg,
				Gates: map[string]*policy.GateSpec{
					"sign":          signSpec,
					"auth_password": passSpec,
					"auth_pubkey":   pubSpec,
					"auth_skey":     skeySpec,
				},
			})
		}
		viaGate := func(spec *policy.GateSpec) authCall {
			return func(s *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
				return s.CallGate(spec, nil, arg)
			}
		}
		return sshWorkerBody(s, fd, arg, &nonce, w.pubAddr, stats,
			viaGate(signSpec), viaGate(passSpec), viaGate(pubSpec), viaGate(skeySpec))
	}, argBuf)
	if err != nil {
		return err
	}
	workerCh <- worker
	w.Stats.Workers.Add(1)
	_, fault := root.Join(worker)
	return fault
}

// authCall invokes one of the worker's privileged entry points: a
// one-shot callgate in the Figure 6 build, a pooled recycled gate in the
// pooled build.
type authCall func(s *sthread.Sthread, arg vm.Addr) (vm.Addr, error)

// storeArg marshals one operation's string payload through the codec,
// bounded to the receiving gate's own input cap (max), so nothing a gate
// would accept is rejected. The bound is load-bearing in the pooled
// builds: an unbounded write would run past the block into the slot's
// argument-tag arena, which the inter-principal scrub does not cover — a
// §3.3 cross-principal storage channel. The codec owns that bound now
// (typed *ArgBoundsError, never a partial write); this helper folds the
// error into the worker protocol's pass/fail idiom and preserves the
// codec's contract one level up: a rejected marshal (empty or oversized
// payload) leaves the block untouched.
func storeArg(s *sthread.Sthread, arg vm.Addr, op uint64, payload []byte, max int) bool {
	if len(payload) == 0 || fStr.StoreMax(s, arg, payload, max) != nil {
		return false
	}
	fOp.Store(s, arg, op)
	return true
}

// sshWorkerBody is the unprivileged network-facing code of Figure 6,
// parameterized over how the privileged entry points are reached.
func sshWorkerBody(s *sthread.Sthread, fd int, arg vm.Addr, noncePtr *[]byte,
	pubAddr vm.Addr, stats *WedgeStats, sign, pass, pub, skey authCall) vm.Addr {
	stream := fdStream{s, fd}

	// The banner and host public key come from memory the worker may
	// read (§5.2: "the worker needs access to the public key in order to
	// reveal its identity to the client" and to the options for version
	// strings).
	if err := WriteFrame(stream, MsgVersion, []byte(Version)); err != nil {
		return 0
	}
	if err := WriteFrame(stream, MsgHostKey, loadBlob(s, pubAddr)); err != nil {
		return 0
	}
	clientNonce, err := ExpectFrame(stream, MsgSignReq)
	if err != nil {
		return 0
	}
	*noncePtr = clientNonce

	// Host authentication through the sign gate.
	if !storeArg(s, arg, sshOpSign, clientNonce, sshSignCap) {
		return 0
	}
	stats.GateCalls.Add(1)
	if ret, err := sign(s, arg); err != nil || ret != 1 {
		return 0
	}
	sig, err := fSig.Load(s, arg)
	if err != nil || len(sig) == 0 {
		return 0
	}
	if err := WriteFrame(stream, MsgSignResp, sig); err != nil {
		return 0
	}

	// Authentication loop: each attempt is one or two gate calls. The
	// worker learns only the verdict; promotion happens behind its back.
	authed := false
	var uid int
	for !authed {
		typ, body, err := ReadFrame(stream)
		if err != nil {
			return 0
		}
		switch typ {
		case MsgAuthPass:
			if !storeArg(s, arg, sshOpPassword, body, sshStrCap) {
				return 0
			}
			stats.GateCalls.Add(1)
			if ret, err := pass(s, arg); err != nil || ret != 1 {
				return 0
			}
			if fAuthOK.Load(s, arg) == 1 {
				authed = true
				uid = fPwUID.Load(s, arg)
				WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", uid)))
			} else {
				WriteFrame(stream, MsgAuthFail, []byte("permission denied"))
			}

		case MsgAuthPub:
			if !storeArg(s, arg, sshOpPubkey, body, sshStrCap) {
				return 0
			}
			stats.GateCalls.Add(1)
			if ret, err := pub(s, arg); err != nil || ret != 1 {
				return 0
			}
			if fAuthOK.Load(s, arg) == 1 {
				authed = true
				uid = s.Task.UID
				WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", uid)))
			} else {
				WriteFrame(stream, MsgAuthFail, []byte("permission denied"))
			}

		case MsgAuthSKey:
			if !storeArg(s, arg, sshOpSKeyChal, body, sshSKeyCap) {
				return 0
			}
			stats.GateCalls.Add(1)
			if ret, err := skey(s, arg); err != nil || ret != 1 {
				return 0
			}
			n := fChalN.Load(s, arg)
			chal := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
			WriteFrame(stream, MsgSKeyChal, chal)
			resp, err := ExpectFrame(stream, MsgSKeyReply)
			if err != nil {
				return 0
			}
			if !storeArg(s, arg, sshOpSKeyVerify, resp, sshSKeyCap) {
				return 0
			}
			stats.GateCalls.Add(1)
			if ret, err := skey(s, arg); err != nil || ret != 1 {
				return 0
			}
			if fAuthOK.Load(s, arg) == 1 {
				authed = true
				uid = s.Task.UID
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

	_ = uid
	return scpSessionLoop(s, stream)
}

// scpSessionLoop is the post-auth session shared by every promoted
// worker build (the Figure 6 one-shot worker, the pooled Wedge worker,
// and the pooled privsep slave): the compartment now runs as the user,
// chrooted to the user's home by the promoting gate, so uploads land
// relative to "/" with the promoted credentials — no ambient authority
// involved.
func scpSessionLoop(s *sthread.Sthread, stream io.ReadWriter) vm.Addr {
	fs := s.Task.Kernel().FS
	for {
		typ, body, err := ReadFrame(stream)
		if err != nil {
			return 0
		}
		switch typ {
		case MsgScpPut:
			name := string(body)
			data, err := ExpectFrame(stream, MsgScpData)
			if err != nil {
				return 0
			}
			if strings.ContainsAny(name, "/\x00") {
				WriteFrame(stream, MsgAuthFail, []byte("bad name"))
				continue
			}
			if err := fs.WriteFile(s.Task.Cred(), s.Task.Root, "/"+name, data, 0o644); err != nil {
				WriteFrame(stream, MsgAuthFail, []byte(err.Error()))
				continue
			}
			WriteFrame(stream, MsgScpOK, nil)
		case MsgExit:
			return 1
		default:
			return 0
		}
	}
}
