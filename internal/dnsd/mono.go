// The unpartitioned baseline resolver: parse, lookup, and signing all
// in one protection domain, so a parser compromise hands the attacker
// the zone key. It serves the identical wire protocol (FRAG included)
// as the pooled wedge.

package dnsd

import (
	"crypto/rsa"
	"errors"
	"fmt"

	"wedge/internal/netsim"
)

// Monolithic is the no-isolation resolver build — the datagram analogue
// of httpd.NewMonolithic: one loop, no compartments, no flows, no
// expiry. Not safe for concurrent ServePackets calls; it serves one
// socket.
//
// It holds the parsed key on the Go heap and signs with it directly,
// while the pooled build's resolve gate constructs the key from its
// tagged blob on every query: about 40 µs, since the blob stores the
// CRT values rather than leaving Qinv to derive (about 265 µs). So the
// bench ladder's mono/pooled contrast measures that per-query key
// construction as well as the partitioning machinery.
type Monolithic struct {
	key     *rsa.PrivateKey
	zone    []Record
	pending map[string][]byte // source address -> parked FRAG first half
}

// NewMonolithic validates the zone exactly as NewPooled does and builds
// the baseline server.
func NewMonolithic(key *rsa.PrivateKey, zone []Record) (*Monolithic, error) {
	if err := validateZone(zone); err != nil {
		return nil, err
	}
	return &Monolithic{key: key, zone: zone, pending: make(map[string][]byte)}, nil
}

// ServePackets answers query datagrams until the socket closes.
func (m *Monolithic) ServePackets(pc *netsim.PacketConn) error {
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, netsim.ErrClosed) {
				return nil
			}
			return err
		}
		if reply := m.handle(buf[:n], from); reply != nil {
			if _, err := pc.WriteTo(reply, from); err != nil {
				if errors.Is(err, netsim.ErrClosed) {
					return nil
				}
				return err
			}
		}
	}
}

// handle maps one datagram to its reply, mirroring workerServe's
// semantics: FRAG halves park per source address, malformed input is
// FORMERR, everything else resolves against the zone.
func (m *Monolithic) handle(pkt []byte, from string) []byte {
	if len(pkt) > 0 && pkt[0] == 'C' {
		half, parked := m.pending[from]
		delete(m.pending, from)
		part, ok := parseCont(pkt)
		if !parked || !ok || len(half)+len(part) == 0 || len(half)+len(part) > MaxName {
			return appendAnswer(nil, StatusFormErr, nil, nil, nil)
		}
		return m.answer(append(half, part...))
	}
	name, frag, ok := parseQuery(pkt)
	if !ok {
		return appendAnswer(nil, StatusFormErr, nil, nil, nil)
	}
	if frag {
		m.pending[from] = name
		return []byte{'A'}
	}
	if len(name) == 0 {
		return appendAnswer(nil, StatusFormErr, nil, nil, nil)
	}
	return m.answer(name)
}

// answer looks the reassembled name up and signs the verdict — the same
// signedMessage the pooled build's resolve gate composes, so the two
// builds are wire-indistinguishable to a verifying client.
func (m *Monolithic) answer(name []byte) []byte {
	status := StatusNXDomain
	var value []byte
	for _, rec := range m.zone {
		if rec.Name == string(name) {
			status = StatusNoError
			value = []byte(rec.Value)
			break
		}
	}
	sig, err := signAnswer(m.key, status, name, value)
	if err != nil {
		return appendAnswer(nil, StatusServFail, name, nil, nil)
	}
	return appendAnswer(nil, status, name, value, sig)
}

// validateZone rejects records the wire format cannot carry.
func validateZone(zone []Record) error {
	for _, rec := range zone {
		if len(rec.Name) == 0 || len(rec.Name) > MaxName {
			return fmt.Errorf("dnsd: zone name %q: length %d outside [1,%d]", rec.Name, len(rec.Name), MaxName)
		}
		if len(rec.Value) > MaxValue {
			return fmt.Errorf("dnsd: zone value for %q: length %d exceeds %d", rec.Name, len(rec.Value), MaxValue)
		}
	}
	return nil
}
