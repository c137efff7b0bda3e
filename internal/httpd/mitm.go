// The man-in-the-middle-resistant partitioning (Figures 3, 4, 5; §5.1.2).
//
// Phase structure (Figure 3): a per-connection master starts the SSL
// handshake sthread, waits for it to terminate successfully, and only then
// starts the client handler sthread. If the handshake sthread is exploited
// and does not exit, the client handler never runs.
//
// Phase 1 (Figure 4): the handshake sthread reads and writes cleartext
// handshake messages but holds neither read nor write permission on the
// session-key region. The setup_session_key callgate generates the server
// random and derives the master secret and key block directly into the
// session-key tag. The Finished exchange runs through two callgates:
// receive_finished verifies the client's Finished (returning only a binary
// verdict) and deposits the server Finished payload into the
// finished-state tag; send_finished seals that payload and hands back
// ciphertext. Neither gate will encrypt or decrypt caller-chosen data, so
// an exploited handshake sthread gains no oracle.
//
// Phase 2 (Figure 5): the client handler has no network descriptor at all.
// SSL_read (fd read-only) verifies-and-decrypts into the user-data tag;
// SSL_write (fd write-only) encrypts from the user-data tag. Injected
// non-MAC'ed traffic dies inside SSL_read and never reaches handler code.

package httpd

import (
	"crypto/rsa"
	"errors"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// The handshake-phase argument fields beyond those shared with the
// Simple variant — the transcript hash and the sealed Finished record —
// are the fMITMTranscript and fMITMRec fields of the shared argument
// schema (httpd.go).

// MITM is the Figures 3-5 server.
type MITM struct {
	Stats Stats

	// WorkerMemPages, when non-zero, caps the additional memory each
	// network-facing compartment (the SSL handshake sthread and the
	// client handler) may map — the DoS mitigation extending §7. The
	// callgates are unaffected: quotas follow the creator.
	WorkerMemPages int

	root    *sthread.Sthread
	docroot string

	privTag  tags.Tag
	privAddr vm.Addr
	pubTag   tags.Tag
	pubAddr  vm.Addr

	cache *minissl.SessionCache
	hooks Hooks
}

// NewMITM builds the two-phase server.
func NewMITM(root *sthread.Sthread, docroot string, priv *rsa.PrivateKey, cache bool, hooks Hooks) (*MITM, error) {
	m := &MITM{root: root, docroot: docroot, hooks: hooks}
	if cache {
		m.cache = minissl.NewSessionCache()
	}
	keyBlob, err := minissl.MarshalPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	if m.privTag, m.privAddr, err = placeBlob(root, keyBlob); err != nil {
		return nil, err
	}
	if m.pubTag, m.pubAddr, err = placeBlob(root, minissl.MarshalPublicKey(&priv.PublicKey)); err != nil {
		return nil, err
	}
	return m, nil
}

// connRegions bundles the per-connection tags and base addresses.
type connRegions struct {
	argTag  tags.Tag
	arg     vm.Addr
	sessTag tags.Tag
	sess    vm.Addr
	finTag  tags.Tag
	fin     vm.Addr
	userTag tags.Tag
	user    vm.Addr
}

func (m *MITM) newConnRegions() (*connRegions, error) {
	root := m.root
	reg := &connRegions{}
	alloc := func(tag *tags.Tag, addr *vm.Addr, size int) error {
		t, err := root.App().Tags.TagNew(root.Task)
		if err != nil {
			return err
		}
		a, err := root.Smalloc(t, size)
		if err != nil {
			return err
		}
		*tag, *addr = t, a
		return nil
	}
	if err := alloc(&reg.argTag, &reg.arg, argSchema.Size()); err != nil {
		return nil, err
	}
	if err := alloc(&reg.sessTag, &reg.sess, sessSchema.Size()); err != nil {
		return nil, err
	}
	if err := alloc(&reg.finTag, &reg.fin, finSchema.Size()); err != nil {
		return nil, err
	}
	if err := alloc(&reg.userTag, &reg.user, userSchema.Size()); err != nil {
		return nil, err
	}
	return reg, nil
}

func (m *MITM) releaseConnRegions(r *connRegions) {
	t := m.root.App().Tags
	t.TagDelete(r.argTag)
	t.TagDelete(r.sessTag)
	t.TagDelete(r.finTag)
	t.TagDelete(r.userTag)
}

// makeSetupGate: like the Simple variant's, but the derived master and
// keys go into the session region; nothing secret is ever written to the
// argument buffer the handshake sthread can read.
func (m *MITM) makeSetupGate(state *setupGateState, sess vm.Addr) sthread.GateFunc {
	cache := m.cache
	return func(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
		switch fOp.Load(g, arg) {
		case opHello:
			fClientRandom.Read(g, arg, state.clientRandom[:])
			sr, err := minissl.NewRandom(cryptoRand{})
			if err != nil {
				return 0
			}
			state.serverRandom = sr
			fServerRandom.Write(g, arg, sr[:])
			fSessClientRandom.Write(g, sess, state.clientRandom[:])
			fSessServerRandom.Write(g, sess, sr[:])

			if id, err := fSessionID.Load(g, arg); cache != nil && err == nil && len(id) == minissl.SessionIDLen {
				if master, ok := cache.Get(id); ok {
					state.resumed = true
					fResumed.Store(g, arg, 1)
					fSessionIDOut.Write(g, arg, id)
					m.installSession(g, sess, master, state)
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
				return 0
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
			m.installSession(g, sess, master, state)
			if cache != nil {
				cache.Put(fSessionIDOut.Bytes(g, arg), master)
			}
			return 1
		}
		return 0
	}
}

// installSession writes the derived secrets into the session region —
// memory the handshake sthread cannot read or write (Figure 4).
func (m *MITM) installSession(g *sthread.Sthread, sess vm.Addr, master [minissl.MasterLen]byte, state *setupGateState) {
	keys := minissl.KeyBlock(master, state.clientRandom, state.serverRandom)
	fSessMaster.Write(g, sess, master[:])
	fSessKeys.Write(g, sess, keys.Marshal())
	fSessReadSeq.Store(g, sess, 0)
	fSessWriteSeq.Store(g, sess, 0)
	fSessEstablished.Store(g, sess, 1)
}

// makeRecvFinished verifies the client's Finished and prepares the server
// Finished payload in the finished-state region. The only value flowing
// back to the handshake sthread is the binary verdict.
func (m *MITM) makeRecvFinished(sess, fin vm.Addr) sthread.GateFunc {
	return func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
		if fSessEstablished.Load(g, sess) != 1 {
			return 0
		}
		var master [minissl.MasterLen]byte
		fSessMaster.Read(g, sess, master[:])
		keys, readSeq, writeSeq, err := loadCoderState(g, sess)
		if err != nil {
			return 0
		}
		rc := minissl.NewRecordCoder(keys, minissl.ServerSide)
		rc.SetSeqs(readSeq, writeSeq)

		var transcript [32]byte
		fMITMTranscript.Read(g, arg, transcript[:])
		sealed, err := fMITMRec.Load(g, arg)
		if err != nil || len(sealed) == 0 {
			return 0
		}

		payload, err := rc.Open(minissl.MsgFinished, sealed)
		if err != nil {
			return 0
		}
		want := minissl.FinishedPayload(master, transcript, "client finished")
		if string(payload) != string(want[:]) {
			return 0
		}
		// Fold the verified cleartext into the transcript and stage the
		// server Finished payload for send_finished.
		t := minissl.ResumeTranscript(transcript)
		t.Add(minissl.MsgFinished, payload)
		sf := minissl.FinishedPayload(master, t.Sum(), "server finished")
		fFinPayload.Write(g, fin, sf[:])
		fFinValid.Store(g, fin, 1)
		fSessReadSeq.Store(g, sess, rc.ReadSeq())
		return 1
	}
}

// makeSendFinished seals the staged server Finished payload and returns
// the ciphertext via the argument buffer. It takes no payload input from
// the caller at all (§5.1.2: "send_finished ... takes no arguments from
// SSL handshake").
func (m *MITM) makeSendFinished(sess, fin vm.Addr) sthread.GateFunc {
	return func(g *sthread.Sthread, arg, _ vm.Addr) vm.Addr {
		if fFinValid.Load(g, fin) != 1 {
			return 0
		}
		var payload [32]byte
		fFinPayload.Read(g, fin, payload[:])
		keys, readSeq, writeSeq, err := loadCoderState(g, sess)
		if err != nil {
			return 0
		}
		rc := minissl.NewRecordCoder(keys, minissl.ServerSide)
		rc.SetSeqs(readSeq, writeSeq)
		sealed, err := rc.Seal(minissl.MsgFinished, payload[:])
		if err != nil {
			return 0
		}
		if err := fMITMRec.Store(g, arg, sealed); err != nil {
			return 0
		}
		fSessWriteSeq.Store(g, sess, rc.WriteSeq())
		return 1
	}
}

// makeSSLRead: phase-2 decryption gate. Reads framed records straight off
// the descriptor (read-only grant), drops anything that fails the MAC, and
// deposits verified plaintext in the user-data region.
func (m *MITM) makeSSLRead(fd int, sess, user vm.Addr) sthread.GateFunc {
	return func(g *sthread.Sthread, _, _ vm.Addr) vm.Addr {
		keys, readSeq, writeSeq, err := loadCoderState(g, sess)
		if err != nil {
			return 0
		}
		rc := minissl.NewRecordCoder(keys, minissl.ServerSide)
		rc.SetSeqs(readSeq, writeSeq)
		stream := Stream(g, fd)
		for {
			body, err := minissl.ExpectMsg(stream, minissl.MsgAppData)
			if err != nil {
				return 0 // EOF or framing garbage: connection over
			}
			plain, err := rc.Open(minissl.MsgAppData, body)
			if err != nil {
				// Injected/tampered record: dropped here, never
				// reaching the client handler (§5.1.2).
				continue
			}
			if err := fUserData.Store(g, user, plain); err != nil {
				return 0
			}
			fSessReadSeq.Store(g, sess, rc.ReadSeq())
			return vm.Addr(len(plain))
		}
	}
}

// makeSSLWrite: phase-2 encryption gate. Write-only descriptor grant; the
// plaintext comes from the user-data region.
func (m *MITM) makeSSLWrite(fd int, sess, user vm.Addr) sthread.GateFunc {
	return func(g *sthread.Sthread, _, _ vm.Addr) vm.Addr {
		plain, err := fUserData.Load(g, user)
		if err != nil || len(plain) == 0 {
			return 0
		}
		keys, readSeq, writeSeq, err := loadCoderState(g, sess)
		if err != nil {
			return 0
		}
		rc := minissl.NewRecordCoder(keys, minissl.ServerSide)
		rc.SetSeqs(readSeq, writeSeq)
		sealed, err := rc.Seal(minissl.MsgAppData, plain)
		if err != nil {
			return 0
		}
		if err := minissl.WriteMsg(Stream(g, fd), minissl.MsgAppData, sealed); err != nil {
			return 0
		}
		fSessWriteSeq.Store(g, sess, rc.WriteSeq())
		return 1
	}
}

// ServeConn runs the full two-phase pipeline for one connection.
func (m *MITM) ServeConn(conn *netsim.Conn) error {
	root := m.root
	fd := root.Task.InstallFD(conn, kernel.FDRW)
	defer root.Task.CloseFD(fd)

	regions, err := m.newConnRegions()
	if err != nil {
		return err
	}
	defer m.releaseConnRegions(regions)

	state := &setupGateState{}

	// Gate policies (Figure 4).
	setupSC := policy.New().
		MustMemAdd(m.privTag, vm.PermRead).
		MustMemAdd(regions.argTag, vm.PermRW).
		MustMemAdd(regions.sessTag, vm.PermRW)
	recvFinSC := policy.New().
		MustMemAdd(regions.argTag, vm.PermRW).
		MustMemAdd(regions.sessTag, vm.PermRW).
		MustMemAdd(regions.finTag, vm.PermRW)
	sendFinSC := policy.New().
		MustMemAdd(regions.argTag, vm.PermRW).
		MustMemAdd(regions.sessTag, vm.PermRW).
		MustMemAdd(regions.finTag, vm.PermRead)

	// Phase 1: the handshake sthread. It may read and write the network,
	// the argument buffer, and the public key — and nothing else.
	hsSC := policy.New().
		MustMemAdd(regions.argTag, vm.PermRW).
		MustMemAdd(m.pubTag, vm.PermRead).
		FDAdd(fd, kernel.FDRW).
		SetMemPages(m.WorkerMemPages)
	hsSC.GateAdd(m.makeSetupGate(state, regions.sess), setupSC, m.privAddr, "setup_session_key")
	hsSC.GateAdd(m.makeRecvFinished(regions.sess, regions.fin), recvFinSC, 0, "receive_finished")
	hsSC.GateAdd(m.makeSendFinished(regions.sess, regions.fin), sendFinSC, 0, "send_finished")
	setupSpec, recvSpec, sendSpec := hsSC.Gates[0], hsSC.Gates[1], hsSC.Gates[2]

	hs, err := root.CreateNamed("ssl-handshake", hsSC, func(h *sthread.Sthread, arg vm.Addr) vm.Addr {
		if m.hooks.Worker != nil {
			m.hooks.Worker(h, &ConnContext{
				FD:          fd,
				PrivKeyAddr: m.privAddr,
				SessionAddr: regions.sess,
				SessionLen:  sessSchema.Size(),
				ArgAddr:     arg,
				Gates: map[string]*GateRef{
					"setup_session_key": {Spec: setupSpec},
					"receive_finished":  {Spec: recvSpec},
					"send_finished":     {Spec: sendSpec},
				},
			})
		}
		return m.handshakeBody(h, fd, arg, setupSpec, recvSpec, sendSpec)
	}, regions.arg)
	if err != nil {
		return err
	}
	m.Stats.SthreadsHS.Add(1)
	hsRet, fault := root.Join(hs)
	if fault != nil {
		m.Stats.Errors.Add(1)
		return fmtErr("mitm", "handshake sthread", fault)
	}
	if hsRet != 1 {
		m.Stats.Errors.Add(1)
		return fmtErr("mitm", "handshake", ErrHandshakeFailed)
	}

	// Phase 2: only now does the master start the client handler
	// (Figure 3). It holds the user-data region and the two record
	// gates; it has no descriptor for the network.
	sslReadSC := policy.New().
		MustMemAdd(regions.sessTag, vm.PermRW).
		MustMemAdd(regions.userTag, vm.PermRW).
		FDAdd(fd, kernel.FDRead)
	sslWriteSC := policy.New().
		MustMemAdd(regions.sessTag, vm.PermRW).
		MustMemAdd(regions.userTag, vm.PermRead).
		FDAdd(fd, kernel.FDWrite)

	chSC := policy.New().MustMemAdd(regions.userTag, vm.PermRW).SetMemPages(m.WorkerMemPages)
	chSC.GateAdd(m.makeSSLRead(fd, regions.sess, regions.user), sslReadSC, 0, "SSL_read")
	chSC.GateAdd(m.makeSSLWrite(fd, regions.sess, regions.user), sslWriteSC, 0, "SSL_write")
	readSpec, writeSpec := chSC.Gates[0], chSC.Gates[1]

	ch, err := root.CreateNamed("client-handler", chSC, func(c *sthread.Sthread, _ vm.Addr) vm.Addr {
		if m.hooks.ClientHandler != nil {
			m.hooks.ClientHandler(c, &ConnContext{
				SessionAddr: regions.sess,
				SessionLen:  sessSchema.Size(),
				Gates: map[string]*GateRef{
					"SSL_read":  {Spec: readSpec},
					"SSL_write": {Spec: writeSpec},
				},
			})
		}
		return m.handlerBody(c, regions.user, readSpec, writeSpec)
	}, 0)
	if err != nil {
		return err
	}
	m.Stats.SthreadsHS.Add(1)
	chRet, fault := root.Join(ch)
	if fault != nil {
		m.Stats.Errors.Add(1)
		return fmtErr("mitm", "client handler", fault)
	}
	if chRet != 1 {
		m.Stats.Errors.Add(1)
		return fmtErr("mitm", "client handler", errors.New("request failed"))
	}
	m.Stats.Requests.Add(1)
	return nil
}

// handshakeBody drives phase 1 without ever holding key material.
func (m *MITM) handshakeBody(h *sthread.Sthread, fd int, arg vm.Addr,
	setupSpec, recvSpec, sendSpec *policy.GateSpec) vm.Addr {
	stream := Stream(h, fd)
	var transcript minissl.Transcript

	chBody, err := minissl.ExpectMsg(stream, minissl.MsgClientHello)
	if err != nil {
		return 0
	}
	transcript.Add(minissl.MsgClientHello, chBody)
	clientRandom, offeredID, err := minissl.ParseClientHello(chBody)
	if err != nil {
		return 0
	}

	fOp.Store(h, arg, opHello)
	fClientRandom.Write(h, arg, clientRandom[:])
	// An oversized resume offer cannot match the cache; the codec refuses
	// to copy it and the handshake proceeds as a fresh session.
	if err := fSessionID.Store(h, arg, offeredID); err != nil {
		fSessionID.Store(h, arg, nil)
	}
	m.Stats.GateCalls.Add(1)
	if ret, err := h.CallGate(setupSpec, nil, arg); err != nil || ret != 1 {
		return 0
	}
	var serverRandom [minissl.RandomLen]byte
	fServerRandom.Read(h, arg, serverRandom[:])
	resumed := fResumed.Load(h, arg) == 1
	sessionID := fSessionIDOut.Bytes(h, arg)

	sh := minissl.BuildServerHello(serverRandom, sessionID, resumed)
	if err := minissl.WriteMsg(stream, minissl.MsgServerHello, sh); err != nil {
		return 0
	}
	transcript.Add(minissl.MsgServerHello, sh)

	if !resumed {
		cert := readBlob(h, m.pubAddr)
		if err := minissl.WriteMsg(stream, minissl.MsgCertificate, cert); err != nil {
			return 0
		}
		transcript.Add(minissl.MsgCertificate, cert)

		ckeBody, err := minissl.ExpectMsg(stream, minissl.MsgClientKeyExchange)
		if err != nil {
			return 0
		}
		transcript.Add(minissl.MsgClientKeyExchange, ckeBody)
		fOp.Store(h, arg, opKex)
		if err := fData.Store(h, arg, ckeBody); err != nil {
			minissl.SendAlert(stream, "bad key exchange")
			return 0
		}
		m.Stats.GateCalls.Add(1)
		if ret, err := h.CallGate(setupSpec, nil, arg); err != nil || ret != 1 {
			minissl.SendAlert(stream, "bad key exchange")
			return 0
		}
	}

	// Client Finished: pass the sealed record plus the transcript hash to
	// receive_finished; learn only pass/fail.
	cfBody, err := minissl.ExpectMsg(stream, minissl.MsgFinished)
	if err != nil {
		return 0
	}
	tsum := transcript.Sum()
	fMITMTranscript.Write(h, arg, tsum[:])
	if err := fMITMRec.Store(h, arg, cfBody); err != nil {
		minissl.SendAlert(stream, "bad finished")
		return 0
	}
	m.Stats.GateCalls.Add(1)
	if ret, err := h.CallGate(recvSpec, nil, arg); err != nil || ret != 1 {
		minissl.SendAlert(stream, "bad finished")
		return 0
	}

	// Server Finished: produced entirely by send_finished; this sthread
	// only moves ciphertext.
	m.Stats.GateCalls.Add(1)
	if ret, err := h.CallGate(sendSpec, nil, arg); err != nil || ret != 1 {
		return 0
	}
	sealed, err := fMITMRec.Load(h, arg)
	if err != nil || len(sealed) == 0 {
		return 0
	}
	if err := minissl.WriteMsg(stream, minissl.MsgFinished, sealed); err != nil {
		return 0
	}
	return 1
}

// handlerBody drives phase 2: request in via SSL_read, response out via
// SSL_write, no network descriptor.
func (m *MITM) handlerBody(c *sthread.Sthread, user vm.Addr,
	readSpec, writeSpec *policy.GateSpec) vm.Addr {
	m.Stats.GateCalls.Add(1)
	n, err := c.CallGate(readSpec, nil, 0)
	if err != nil || n == 0 {
		return 0
	}
	req, err := fUserData.Load(c, user)
	if err != nil || len(req) == 0 {
		return 0
	}

	resp := ServeStatic(c, m.docroot, string(req))
	if err := fUserData.Store(c, user, resp); err != nil {
		return 0
	}

	m.Stats.GateCalls.Add(1)
	if ret, err := c.CallGate(writeSpec, nil, 0); err != nil || ret != 1 {
		return 0
	}
	return 1
}
