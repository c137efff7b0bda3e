// The monolithic baseline: OpenSSH 3.1p1 before privilege separation. The
// entire session — host key operations, shadow lookups, PAM-style library
// calls, network parsing — runs in one root-privileged compartment. The
// PAM scratch-memory weakness ([8] in the paper) is reproduced literally:
// the library leaves the cleartext password in unscrubbed heap memory that
// any later exploit of the same process can read.

package sshd

import (
	"fmt"
	"strings"
	"sync/atomic"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/vfs"
	"wedge/internal/vm"
)

// MonoStats counts monolithic server activity.
type MonoStats struct {
	Logins atomic.Uint64
	Fails  atomic.Uint64
}

// Monolithic is the unpartitioned server.
type Monolithic struct {
	Stats MonoStats

	root  *sthread.Sthread
	cfg   ServerConfig
	hooks MonoHooks
}

// MonoHooks injects exploit code into the (single) compartment.
type MonoHooks struct {
	// PostAuth runs after an authentication attempt, with the compartment
	// sthread and the scratch location of the PAM call.
	PostAuth func(s *sthread.Sthread, scratch vm.Addr, n int)
}

// NewMonolithic builds the baseline server in the root sthread.
func NewMonolithic(root *sthread.Sthread, cfg ServerConfig, hooks MonoHooks) *Monolithic {
	return &Monolithic{root: root, cfg: cfg, hooks: hooks}
}

// pamCheck models the PAM library conversation of [8]: it copies the
// password into heap scratch, validates it against the shadow entry, and
// returns without scrubbing the scratch. In this monolithic server the
// scratch lives in the same address space as all network-facing code.
func pamCheck(s *sthread.Sthread, entry ShadowEntry, password string) (bool, vm.Addr, int) {
	scratch, err := s.Malloc(len(password) + 1)
	if err != nil {
		return false, 0, 0
	}
	s.WriteString(scratch, password)
	ok := HashPassword(entry.Salt, password) == entry.Hash
	// BUG(reproduced): scratch is neither scrubbed nor freed before
	// return, exactly the OpenSSH/PAM weakness the paper cites.
	return ok, scratch, len(password)
}

// readShadow loads and parses /etc/shadow with the compartment's creds.
func readShadow(s *sthread.Sthread) ([]ShadowEntry, error) {
	data, err := s.Task.Kernel().FS.ReadFile(s.Task.Cred(), s.Task.Root, "/etc/shadow")
	if err != nil {
		return nil, err
	}
	return ParseShadow(data)
}

func readSKeyDB(s *sthread.Sthread) ([]SKeyEntry, error) {
	data, err := s.Task.Kernel().FS.ReadFile(s.Task.Cred(), s.Task.Root, "/etc/skeykeys")
	if err != nil {
		return nil, err
	}
	return ParseSKey(data)
}

func writeSKeyDB(s *sthread.Sthread, entries []SKeyEntry) error {
	return s.Task.Kernel().FS.WriteFile(s.Task.Cred(), s.Task.Root, "/etc/skeykeys",
		FormatSKey(entries), 0o600)
}

// ServeConn handles one session in the root compartment.
func (m *Monolithic) ServeConn(conn *netsim.Conn) error {
	s := m.root
	fd := s.Task.InstallFD(conn, kernel.FDRW)
	defer s.Task.CloseFD(fd)
	stream := fdStream{s, fd}

	if err := WriteFrame(stream, MsgVersion, []byte(Version)); err != nil {
		return err
	}
	if err := WriteFrame(stream, MsgHostKey, minissl.MarshalPublicKey(&m.cfg.HostKey.PublicKey)); err != nil {
		return err
	}
	nonce, err := ExpectFrame(stream, MsgSignReq)
	if err != nil {
		return err
	}
	sig, err := SignHash(m.cfg.HostKey, nonce)
	if err != nil {
		return err
	}
	if err := WriteFrame(stream, MsgSignResp, sig); err != nil {
		return err
	}

	// Authentication loop: everything checked in-process.
	authedUID := -1
	authedHome := ""
	for authedUID < 0 {
		typ, body, err := ReadFrame(stream)
		if err != nil {
			return err
		}
		switch typ {
		case MsgAuthPass:
			user, pass, ok := strings.Cut(string(body), "\x00")
			if !ok {
				return ErrProtocol
			}
			entries, err := readShadow(s)
			if err != nil {
				return err
			}
			entry, found := LookupShadow(entries, user)
			// scratch is where this attempt's PAM-style scratch landed —
			// the heap-disclosure stand-in that lets an exploit locate
			// the residue. It is per attempt: connections run
			// concurrently.
			var passOK bool
			var scratch vm.Addr
			var scratchLen int
			if found {
				passOK, scratch, scratchLen = pamCheck(s, entry, pass)
			}
			if m.hooks.PostAuth != nil {
				m.hooks.PostAuth(s, scratch, scratchLen)
			}
			if found && passOK {
				authedUID, authedHome = entry.UID, entry.Home
				WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", entry.UID)))
			} else {
				m.Stats.Fails.Add(1)
				WriteFrame(stream, MsgAuthFail, []byte("permission denied"))
			}

		case MsgAuthPub:
			user, sigBytes, ok := strings.Cut(string(body), "\x00")
			if !ok {
				return ErrProtocol
			}
			entries, _ := readShadow(s)
			entry, found := LookupShadow(entries, user)
			if found {
				keyData, err := s.Task.Kernel().FS.ReadFile(s.Task.Cred(), s.Task.Root,
					entry.Home+"/.ssh/authorized_keys")
				if err == nil {
					pub, err := minissl.UnmarshalPublicKey(keyData)
					if err == nil && VerifyHash(pub, append([]byte("pubkey:"+user+":"), nonce...), []byte(sigBytes)) == nil {
						authedUID, authedHome = entry.UID, entry.Home
						WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", entry.UID)))
						continue
					}
				}
			}
			m.Stats.Fails.Add(1)
			WriteFrame(stream, MsgAuthFail, []byte("permission denied"))

		case MsgAuthSKey:
			// The pre-fix behaviour ([14]): reveal whether the user
			// exists by failing the challenge for unknown names.
			user := string(body)
			db, err := readSKeyDB(s)
			if err != nil {
				return err
			}
			idx := -1
			for i := range db {
				if db[i].Name == user {
					idx = i
					break
				}
			}
			if idx < 0 {
				m.Stats.Fails.Add(1)
				WriteFrame(stream, MsgAuthFail, []byte("no such user")) // the leak
				continue
			}
			chal := []byte{byte(db[idx].N >> 24), byte(db[idx].N >> 16), byte(db[idx].N >> 8), byte(db[idx].N)}
			WriteFrame(stream, MsgSKeyChal, chal)
			resp, err := ExpectFrame(stream, MsgSKeyReply)
			if err != nil {
				return err
			}
			if VerifySKey(&db[idx], resp) {
				writeSKeyDB(s, db)
				entries, _ := readShadow(s)
				if entry, found := LookupShadow(entries, user); found {
					authedUID, authedHome = entry.UID, entry.Home
					WriteFrame(stream, MsgAuthOK, []byte(fmt.Sprintf("uid=%d", entry.UID)))
					continue
				}
			}
			m.Stats.Fails.Add(1)
			WriteFrame(stream, MsgAuthFail, []byte("permission denied"))

		case MsgExit:
			return nil
		default:
			return ErrProtocol
		}
	}
	m.Stats.Logins.Add(1)
	return serveSession(s, stream, authedHome, authedUID)
}

// serveSession handles post-auth commands (scp uploads) until MsgExit.
// The monolithic and privsep servers write with explicit credentials; the
// Wedge worker has been promoted and uses its own.
func serveSession(s *sthread.Sthread, stream fdStream, home string, uid int) error {
	fs := s.Task.Kernel().FS
	for {
		typ, body, err := ReadFrame(stream)
		if err != nil {
			return err
		}
		switch typ {
		case MsgScpPut:
			name := string(body)
			if strings.ContainsAny(name, "/\x00") {
				WriteFrame(stream, MsgAuthFail, []byte("bad name"))
				continue
			}
			data, err := ExpectFrame(stream, MsgScpData)
			if err != nil {
				return err
			}
			if err := fs.WriteFile(vfs.Cred{UID: uid}, s.Task.Root, home+"/"+name, data, 0o644); err != nil {
				WriteFrame(stream, MsgAuthFail, []byte(err.Error()))
				continue
			}
			WriteFrame(stream, MsgScpOK, nil)
		case MsgExit:
			return nil
		default:
			return ErrProtocol
		}
	}
}

// fdStream adapts a compartment descriptor to io.ReadWriter.
type fdStream struct {
	s  *sthread.Sthread
	fd int
}

func (f fdStream) Read(p []byte) (int, error)  { return f.s.Task.ReadFD(f.fd, p) }
func (f fdStream) Write(p []byte) (int, error) { return f.s.Task.WriteFD(f.fd, p) }
