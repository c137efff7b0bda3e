// The Simple partitioning (Figure 2, §5.1.1): one worker sthread per
// connection, terminating after a single request so successive requests
// are isolated from one another; the RSA private key in tagged memory
// reachable only through the setup_session_key callgate; and the server
// random generated inside that callgate, so an exploited worker cannot
// bias session key generation. The callgate returns the established
// session key to the worker — sufficient under the eavesdropper threat
// model, and exactly the gap the MITM partitioning closes.

package httpd

import (
	"crypto/rand"
	"crypto/rsa"
	"io"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// Simple is the Figure 2 server.
type Simple struct {
	Stats Stats

	root    *sthread.Sthread
	docroot string

	privTag  tags.Tag
	privAddr vm.Addr
	pubTag   tags.Tag
	pubAddr  vm.Addr

	cache *minissl.SessionCache
	hooks Hooks
}

// NewSimple builds the Figure 2 server: the private key is copied into its
// own tag, the public key into another (workers may read the latter only).
func NewSimple(root *sthread.Sthread, docroot string, priv *rsa.PrivateKey, cache bool, hooks Hooks) (*Simple, error) {
	s := &Simple{root: root, docroot: docroot, hooks: hooks}
	if cache {
		s.cache = minissl.NewSessionCache()
	}
	keyBlob, err := minissl.MarshalPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	if s.privTag, s.privAddr, err = placeBlob(root, keyBlob); err != nil {
		return nil, err
	}
	if s.pubTag, s.pubAddr, err = placeBlob(root, minissl.MarshalPublicKey(&priv.PublicKey)); err != nil {
		return nil, err
	}
	return s, nil
}

// placeBlob stores a length-prefixed blob in a fresh tag and returns the
// tag and the blob's base address.
func placeBlob(root *sthread.Sthread, blob []byte) (tags.Tag, vm.Addr, error) {
	tag, err := root.App().Tags.TagNew(root.Task)
	if err != nil {
		return 0, 0, err
	}
	addr, err := root.Smalloc(tag, 8+len(blob))
	if err != nil {
		return 0, 0, err
	}
	root.Store64(addr, uint64(len(blob)))
	root.Write(addr+8, blob)
	return tag, addr, nil
}

// readBlob loads a placeBlob blob from a compartment that has read access.
func readBlob(s *sthread.Sthread, addr vm.Addr) []byte {
	n := s.Load64(addr)
	out := make([]byte, n)
	s.Read(addr+8, out)
	return out
}

// setupGateState is the per-connection privileged state the callgate
// closure keeps between its two invocations. It lives on the privileged
// side of the boundary; the worker cannot name it.
type setupGateState struct {
	clientRandom [minissl.RandomLen]byte
	serverRandom [minissl.RandomLen]byte
	resumed      bool
}

// setupOps implements the setup_session_key operations — hello (server
// random generation plus resumption lookup) and kex (premaster
// decryption, master/key derivation) — against one connection's
// handshake state, reading and writing the argument block only through
// the schema's typed handles. Shared verbatim by the Simple gate
// closure, the Recycled gate's demuxed body, and the pooled build's
// setup entry; the MITM build keeps its own variant (secrets flow to the
// session region, never to the block).
func setupOps(g *sthread.Sthread, arg, trusted vm.Addr, state *setupGateState, cache *minissl.SessionCache) vm.Addr {
	switch fOp.Load(g, arg) {
	case opHello:
		fClientRandom.Read(g, arg, state.clientRandom[:])
		// The server random is generated here, inside the gate:
		// the worker may neither supply nor predict it (§5.1.1).
		sr, err := minissl.NewRandom(cryptoRand{})
		if err != nil {
			return 0
		}
		state.serverRandom = sr
		fServerRandom.Write(g, arg, sr[:])

		// Session resumption: look the offered id up in the cache. The
		// codec bounds the decode; only a full-length id can hit (cache
		// keys are whole session ids).
		if id, err := fSessionID.Load(g, arg); cache != nil && err == nil && len(id) == minissl.SessionIDLen {
			if master, ok := cache.Get(id); ok {
				state.resumed = true
				fResumed.Store(g, arg, 1)
				fSessionIDOut.Write(g, arg, id)
				keys := minissl.KeyBlock(master, state.clientRandom, sr)
				fMaster.Write(g, arg, master[:])
				fKeys.Write(g, arg, keys.Marshal())
				return 1
			}
		}
		fResumed.Store(g, arg, 0)
		id, err := minissl.NewSessionID(cryptoRand{})
		if err != nil {
			return 0
		}
		fSessionIDOut.Write(g, arg, id)
		return 1

	case opKex:
		if state.resumed {
			return 0 // protocol violation
		}
		ct, err := fData.Load(g, arg)
		if err != nil || len(ct) == 0 {
			return 0
		}
		priv, err := minissl.UnmarshalPrivateKey(readBlob(g, trusted))
		if err != nil {
			return 0
		}
		premaster, err := minissl.DecryptPremaster(priv, ct)
		if err != nil {
			return 0
		}
		master := minissl.DeriveMaster(premaster, state.clientRandom, state.serverRandom)
		keys := minissl.KeyBlock(master, state.clientRandom, state.serverRandom)
		fMaster.Write(g, arg, master[:])
		fKeys.Write(g, arg, keys.Marshal())
		if cache != nil {
			cache.Put(fSessionIDOut.Bytes(g, arg), master)
		}
		return 1
	}
	return 0
}

// makeSetupGate builds the setup_session_key entry point for one
// connection. The trusted argument is the private-key blob address; the
// untrusted argument is the worker-shared buffer.
func (s *Simple) makeSetupGate(state *setupGateState) sthread.GateFunc {
	cache := s.cache
	return func(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
		return setupOps(g, arg, trusted, state, cache)
	}
}

// ServeConn partitions one connection per Figure 2 and blocks until the
// worker exits.
func (s *Simple) ServeConn(conn *netsim.Conn) error {
	root := s.root
	fd := root.Task.InstallFD(conn, kernel.FDRW)
	defer root.Task.CloseFD(fd)

	connTag, err := root.App().Tags.TagNew(root.Task)
	if err != nil {
		return err
	}
	defer root.App().Tags.TagDelete(connTag)
	argBuf, err := root.Smalloc(connTag, argSchema.Size())
	if err != nil {
		return err
	}

	state := &setupGateState{}
	gateSC := policy.New().
		MustMemAdd(s.privTag, vm.PermRead).
		MustMemAdd(connTag, vm.PermRW)

	workerSC := policy.New().
		MustMemAdd(connTag, vm.PermRW).
		MustMemAdd(s.pubTag, vm.PermRead).
		FDAdd(fd, kernel.FDRW)
	workerSC.GateAdd(s.makeSetupGate(state), gateSC, s.privAddr, "setup_session_key")
	setupSpec := workerSC.Gates[0]

	worker, err := root.CreateNamed("worker", workerSC, func(w *sthread.Sthread, arg vm.Addr) vm.Addr {
		if s.hooks.Worker != nil {
			s.hooks.Worker(w, &ConnContext{
				FD:          fd,
				PrivKeyAddr: s.privAddr,
				PrivKeyLen:  8 + 1024,
				ArgAddr:     arg,
				Gates:       map[string]*GateRef{"setup_session_key": {Spec: setupSpec}},
			})
		}
		setup := func(w *sthread.Sthread, arg vm.Addr) (vm.Addr, error) {
			return w.CallGate(setupSpec, nil, arg)
		}
		return httpdWorkerBody(w, fd, arg, setup, &s.Stats, s.pubAddr, s.docroot)
	}, argBuf)
	if err != nil {
		return err
	}
	s.Stats.SthreadsHS.Add(1)
	ret, fault := root.Join(worker)
	if fault != nil {
		s.Stats.Errors.Add(1)
		return fmtErr("simple", "worker", fault)
	}
	if ret != 1 {
		s.Stats.Errors.Add(1)
		return fmtErr("simple", "worker", ErrHandshakeFailed)
	}
	s.Stats.Requests.Add(1)
	return nil
}

// The per-connection worker protocol — ClientHello through the single
// request/response — is httpdWorkerBody (recycled.go), shared by every
// partitioned variant and parameterized only over how the setup gate is
// reached (a one-shot callgate here, a recycled gate or pool lease in
// the other builds).

// cryptoRand adapts crypto/rand for the gate closures without importing it
// in every file.
type cryptoRand struct{}

func (cryptoRand) Read(p []byte) (int, error) { return io.ReadFull(rand.Reader, p) }
