// Package sshd reproduces the OpenSSH application study (§5.2): an
// SSH-shaped login server built three ways over the same authentication
// substrate.
//
//   - Monolithic: OpenSSH 3.1p1 before privilege separation. Host key,
//     shadow entries, and PAM-style scratch memory share the worker's
//     address space.
//   - Privsep: Provos-style privilege separation — a privileged monitor
//     and an unprivileged slave talking over a narrow interface. Exhibits
//     the two leaks the paper dissects: the monitor's getpwnam reply
//     distinguishes valid from invalid usernames, and memory inherited
//     across fork carries library scratch data.
//   - Wedge (Figure 6): per-connection worker sthreads running as an
//     unprivileged user chrooted to an empty directory, with the host key
//     behind a sign callgate and one callgate per authentication method
//     (password, public-key, S/Key). Successful authentication promotes
//     the worker's uid and filesystem root from inside the gate — the only
//     path to a logged-in state.
//
// The wire protocol is a line/frame-oriented SSH analogue sufficient for
// the partitioning claims and the Table 2 latency rows (login and a 10 MB
// scp); transport encryption is orthogonal to §5.2's goals and omitted.
// Passwords are salted-hashed in /etc/shadow; S/Key is a real hash chain;
// public-key login signs a server nonce.
package sshd

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/vfs"
)

// Protocol message types.
const (
	MsgVersion   byte = 1
	MsgHostKey   byte = 2
	MsgSignReq   byte = 3
	MsgSignResp  byte = 4
	MsgAuthPass  byte = 5
	MsgAuthPub   byte = 6
	MsgAuthSKey  byte = 7
	MsgSKeyChal  byte = 8
	MsgAuthOK    byte = 9
	MsgAuthFail  byte = 10
	MsgScpPut    byte = 11
	MsgScpData   byte = 12
	MsgScpOK     byte = 13
	MsgExit      byte = 14
	MsgSKeyReply byte = 15
)

// Version is the protocol banner.
const Version = "MINISSH-1.0"

// Errors.
var (
	ErrAuthFailed = errors.New("sshd: authentication failed")
	ErrProtocol   = errors.New("sshd: protocol error")
)

// WriteFrame / ReadFrame: u8 type, u32 length, payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, 5)
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		// The header is the whole frame. A second, empty write would
		// fail if the peer already acted on the frame and closed — an
		// Exit the server honoured would be reported as lost.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, capped at 32 MiB (a 10 MB scp fits).
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > 32<<20 {
		return 0, nil, ErrProtocol
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, nil, err
	}
	return hdr[0], p, nil
}

// ExpectFrame reads a frame and requires its type.
func ExpectFrame(r io.Reader, typ byte) ([]byte, error) {
	got, p, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, fmt.Errorf("%w: frame %d, want %d", ErrProtocol, got, typ)
	}
	return p, nil
}

// ---- user database ---------------------------------------------------------------

// Passwd mirrors the struct passwd fields the paper's dummy-reply lesson
// concerns.
type Passwd struct {
	Name string
	UID  int
	Home string
}

// HashPassword computes the shadow entry hash.
func HashPassword(salt, password string) string {
	h := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(h[:])
}

// ShadowEntry is one /etc/shadow line: name:salt:hash:uid:home.
type ShadowEntry struct {
	Name string
	Salt string
	Hash string
	UID  int
	Home string
}

// FormatShadow renders entries into the file body.
func FormatShadow(entries []ShadowEntry) []byte {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s:%s:%s:%d:%s\n", e.Name, e.Salt, e.Hash, e.UID, e.Home)
	}
	return []byte(b.String())
}

// ParseShadow parses the file body.
func ParseShadow(data []byte) ([]ShadowEntry, error) {
	var out []ShadowEntry
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, ":")
		if len(f) != 5 {
			return nil, fmt.Errorf("%w: shadow line %q", ErrProtocol, line)
		}
		uid, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, err
		}
		out = append(out, ShadowEntry{Name: f[0], Salt: f[1], Hash: f[2], UID: uid, Home: f[4]})
	}
	return out, nil
}

// LookupShadow finds a user's entry.
func LookupShadow(entries []ShadowEntry, user string) (ShadowEntry, bool) {
	for _, e := range entries {
		if e.Name == user {
			return e, true
		}
	}
	return ShadowEntry{}, false
}

// ---- S/Key hash chains --------------------------------------------------------------

// SKeyHash is one step of the S/Key chain.
func SKeyHash(in []byte) []byte {
	h := sha256.Sum256(in)
	return h[:]
}

// SKeyChain computes hash^n(seed).
func SKeyChain(seed []byte, n int) []byte {
	cur := append([]byte(nil), seed...)
	for i := 0; i < n; i++ {
		cur = SKeyHash(cur)
	}
	return cur
}

// SKeyEntry is one /etc/skeykeys line: user:n:hex(hash^n(seed)).
type SKeyEntry struct {
	Name string
	N    int
	Last []byte // hash^N(seed)
}

// FormatSKey renders the database body.
func FormatSKey(entries []SKeyEntry) []byte {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s:%d:%s\n", e.Name, e.N, hex.EncodeToString(e.Last))
	}
	return []byte(b.String())
}

// ParseSKey parses the database body.
func ParseSKey(data []byte) ([]SKeyEntry, error) {
	var out []SKeyEntry
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("%w: skey line %q", ErrProtocol, line)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, err
		}
		last, err := hex.DecodeString(f[2])
		if err != nil {
			return nil, err
		}
		out = append(out, SKeyEntry{Name: f[0], N: n, Last: last})
	}
	return out, nil
}

// skeyDummySecret keys the dummy-challenge derivation below. A fresh
// random per-process secret: an attacker who knows the source cannot
// precompute any username's dummy challenge and compare it against the
// server's answer to detect real accounts.
var skeyDummySecret = func() []byte {
	b := make([]byte, 16)
	rand.Read(b)
	return b
}()

// SKeyDummyChallenge derives the chain position served to S/Key
// challenge requests for unknown usernames: plausible (50–99),
// consistent across repeated probes of the same name, and — because it
// is keyed — indistinguishable from a provisioned user's position
// without the server's secret. (A publicly computable formula here would
// re-open the enumeration leak the dummy exists to close.)
func SKeyDummyChallenge(user string) uint64 {
	mac := hmac.New(sha256.New, skeyDummySecret)
	mac.Write([]byte(user))
	return 50 + uint64(mac.Sum(nil)[0])%50
}

// VerifySKey checks a response against an entry: hash(resp) must equal the
// stored value; on success the entry steps down the chain.
func VerifySKey(e *SKeyEntry, resp []byte) bool {
	if e.N <= 1 {
		return false // chain exhausted
	}
	if !hmac.Equal(SKeyHash(resp), e.Last) {
		return false
	}
	e.N--
	e.Last = append([]byte(nil), resp...)
	return true
}

// ---- host and user keys ----------------------------------------------------------------

// SignHash signs sha256(data) with an RSA key: the sign callgate's
// operation. The gate hashes the input itself, so a caller cannot obtain
// signatures (or, with RSA, decryptions) of chosen values — "the worker
// cannot sign arbitrary data, and therefore possibly decrypt data, since
// only the hash computed by the callgate is signed" (§5.2).
func SignHash(priv *rsa.PrivateKey, data []byte) ([]byte, error) {
	sum := sha256.Sum256(data)
	return rsa.SignPKCS1v15(nil, priv, 0, sum[:])
}

// VerifyHash checks a SignHash signature.
func VerifyHash(pub *rsa.PublicKey, data, sig []byte) error {
	sum := sha256.Sum256(data)
	return rsa.VerifyPKCS1v15(pub, 0, sum[:], sig)
}

// GenerateUserKey creates a client key pair for public-key login.
func GenerateUserKey() (*rsa.PrivateKey, error) {
	return rsa.GenerateKey(rand.Reader, 1024)
}

// ---- scenario setup -------------------------------------------------------------------

// User describes one account provisioned by SetupUsers.
type User struct {
	Name     string
	Password string
	UID      int
	// PubKey, when non-nil, lands in ~/.ssh/authorized_keys.
	PubKey *rsa.PublicKey
	// SKeySeed, when non-empty, provisions an S/Key chain of length SKeyN.
	SKeySeed []byte
	SKeyN    int
}

// SetupUsers provisions /etc/shadow, /etc/skeykeys, /var/empty, and home
// directories on the simulated filesystem.
func SetupUsers(k *kernel.Kernel, users []User) error {
	root := vfs.Cred{UID: 0}
	fs := k.FS
	if err := fs.MkdirAll(root, fs.Root(), "/etc", 0o755); err != nil {
		return err
	}
	if err := fs.MkdirAll(root, fs.Root(), "/var/empty", 0o755); err != nil {
		return err
	}
	var shadow []ShadowEntry
	var skeys []SKeyEntry
	for _, u := range users {
		home := "/home/" + u.Name
		if err := fs.MkdirAll(root, fs.Root(), home+"/.ssh", 0o755); err != nil {
			return err
		}
		if err := fs.Chown(root, fs.Root(), home, u.UID); err != nil {
			return err
		}
		salt := u.Name + "-salt"
		shadow = append(shadow, ShadowEntry{
			Name: u.Name, Salt: salt, Hash: HashPassword(salt, u.Password),
			UID: u.UID, Home: home,
		})
		if u.PubKey != nil {
			if err := fs.WriteFile(root, fs.Root(), home+"/.ssh/authorized_keys",
				minissl.MarshalPublicKey(u.PubKey), 0o644); err != nil {
				return err
			}
		}
		if len(u.SKeySeed) > 0 {
			skeys = append(skeys, SKeyEntry{
				Name: u.Name, N: u.SKeyN, Last: SKeyChain(u.SKeySeed, u.SKeyN),
			})
		}
	}
	if err := fs.WriteFile(root, fs.Root(), "/etc/shadow", FormatShadow(shadow), 0o600); err != nil {
		return err
	}
	return fs.WriteFile(root, fs.Root(), "/etc/skeykeys", FormatSKey(skeys), 0o600)
}

// ServerConfig is shared by the three variants.
type ServerConfig struct {
	HostKey *rsa.PrivateKey
	// Options is the server configuration data workers may read (§5.2:
	// version strings, permitted auth methods, ...).
	Options string
}
