// The monolithic baseline: vanilla Apache/OpenSSL. One trust domain holds
// the private key, every session key, and all request-parsing code; a pool
// of reused workers serves connections with no isolation between
// successive requests — which is why it tops Table 2 and why an exploit
// anywhere leaks everything.

package httpd

import (
	"crypto/rsa"

	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// Monolithic is the unpartitioned server.
type Monolithic struct {
	Stats Stats

	root    *sthread.Sthread
	docroot string
	priv    *rsa.PrivateKey
	cache   *minissl.SessionCache
	hooks   Hooks

	// The private key also lives in the root sthread's simulated memory,
	// as it would in a real process image; this is what an exploit reads.
	privAddr vm.Addr
	privLen  int
}

// NewMonolithic builds the baseline server inside the root sthread.
func NewMonolithic(root *sthread.Sthread, docroot string, priv *rsa.PrivateKey, cache bool, hooks Hooks) (*Monolithic, error) {
	m := &Monolithic{root: root, docroot: docroot, priv: priv, hooks: hooks}
	if cache {
		m.cache = minissl.NewSessionCache()
	}
	// Place the key bytes in plain (untagged, but root-visible) memory.
	der, err := minissl.MarshalPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	addr, err := root.Malloc(len(der))
	if err != nil {
		return nil, err
	}
	root.Write(addr, der)
	m.privAddr, m.privLen = addr, len(der)
	return m, nil
}

// ServeConn handles one accepted connection entirely within the root
// compartment, like a pooled Apache worker: no sthread creation, no
// callgates, no isolation.
func (m *Monolithic) ServeConn(conn *netsim.Conn) error {
	fd := m.root.Task.InstallFD(conn, 3) // FDRW
	defer m.root.Task.CloseFD(fd)

	if m.hooks.Worker != nil {
		m.hooks.Worker(m.root, &ConnContext{
			FD:          fd,
			PrivKeyAddr: m.privAddr,
			PrivKeyLen:  m.privLen,
		})
	}

	stream := Stream(m.root, fd)
	sc, err := minissl.ServerHandshake(stream, m.priv, m.cache)
	if err != nil {
		m.Stats.Errors.Add(1)
		return fmtErr("mono", "handshake", err)
	}
	if sc.Resumed {
		m.Stats.Resumed.Add(1)
	} else {
		m.Stats.FullHS.Add(1)
	}

	req, err := sc.ReadRecord()
	if err != nil {
		m.Stats.Errors.Add(1)
		return fmtErr("mono", "read request", err)
	}
	resp := ServeStatic(m.root, m.docroot, string(req))
	if _, err := sc.Write(resp); err != nil {
		m.Stats.Errors.Add(1)
		return fmtErr("mono", "write response", err)
	}
	m.Stats.Requests.Add(1)
	return nil
}
