// Package dnsd is the datagram wedge: a DNS-like UDP resolver split
// into the paper's two-compartment shape. The worker compartment parses
// untrusted query datagrams — the "risky code" of §2 — holding nothing
// but its slot's argument tag and the flow's descriptor. The zone —
// records and the zone-signing key — lives behind one callgate
// ("resolve") in its own tag; the gate looks the name up AND signs the
// answer itself, over a message it composes, so a compromised worker
// cannot obtain signatures of chosen values (§5.2's signing lesson,
// applied to datagrams: signed answers and signed denials both come
// only from the gate).
//
// The server is a serve.App served through the runtime's datagram demux
// (internal/serve): the runtime owns the packet loop, demultiplexes
// datagrams by source address into flows, and retires idle flows by
// timer wheel. One worker invocation serves one flow — all queries a
// client sends before going quiet — and the flow's slot lease spans the
// invocation, exactly the stream wedges' residue model.
//
// Wire protocol (one datagram per message, binary, length-prefixed):
//
//	query:        'Q' flags(1) nlen(1) name[nlen]
//	continuation: 'C' nlen(1) name[nlen]      (after a FRAG query)
//	ack:          'A'                          (server accepts the FRAG half)
//	answer:       'R' status(1) nlen(1) name vlen(2 LE) value slen(2 LE) sig
//
// A query with the FRAG flag carries only the first half of the name;
// the server acks with 'A' and waits for one continuation. (It is the
// datagram analogue of a stream client pausing mid-command — what lets
// tests park a worker provably inside its invocation.)
package dnsd

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/minissl"
	"wedge/internal/policy"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// Answer statuses.
const (
	StatusNoError  byte = 0 // name resolved; value and signature present
	StatusNXDomain byte = 1 // no such name; the denial is signed too
	StatusRefused  byte = 2 // admission control refused the flow
	StatusFormErr  byte = 3 // malformed query; the resolve gate never ran
	StatusServFail byte = 4 // the resolve gate failed
)

const (
	// MaxName bounds a query name (after reassembly of a FRAG query).
	MaxName = 255
	// MaxValue bounds a zone record's value.
	MaxValue = 512

	dnsSigCap = 256 // RSA-1024 signatures are 128 bytes; headroom for larger keys
	flagFrag  = 0x01

	// maxDatagram is the worker's read buffer: large enough that any
	// datagram the wire format could need arrives whole.
	maxDatagram = 2048
)

// The shared argument-block schema (worker <-> resolve gate). The worker
// stores the reassembled query name; the gate stores the verdict, the
// record value, and the signature it computed over all three.
var (
	dnsSchemaB = gateabi.NewSchema("dnsd")

	fQName  = gateabi.Bytes(dnsSchemaB, "qname", MaxName)  // worker -> gate
	fStatus = gateabi.Word[uint64](dnsSchemaB, "status")   // gate -> worker
	fValue  = gateabi.Bytes(dnsSchemaB, "value", MaxValue) // gate -> worker
	fSig    = gateabi.Bytes(dnsSchemaB, "sig", dnsSigCap)  // gate -> worker
	_       = gateabi.ConnID(dnsSchemaB)
	_       = gateabi.FD(dnsSchemaB)

	dnsSchema = dnsSchemaB.Seal()
)

// GateSchema exposes the argument-block schema (for the conformance
// battery and the cross-app FuzzGateABI harness).
func GateSchema() *gateabi.Schema { return dnsSchema }

// Record is one zone entry.
type Record struct {
	Name  string
	Value string
}

// ConnContext is what the worker hook observes: the flow's descriptor
// and the slot's argument block.
type ConnContext struct {
	FD      int
	ArgAddr vm.Addr
}

// Hooks are test observability points.
type Hooks struct {
	// Worker runs at the top of each worker invocation (once per flow).
	Worker func(w *sthread.Sthread, ctx *ConnContext)
	// Resolve runs at the top of each resolve-gate invocation, before
	// the gate validates anything — so a test can assert the gate was
	// never reached for a malformed query.
	Resolve func()
}

// DefaultIdleTimeout is the flow-expiry window when Config sets none.
// Datagram flows must always expire — there is no FIN.
const DefaultIdleTimeout = 30 * time.Second

// Config sizes the resolver.
type Config struct {
	Slots       int           // gate-pool slots (serve.DefaultSlots if <= 0)
	IdleTimeout time.Duration // flow-expiry window (DefaultIdleTimeout if <= 0)
	Hooks       Hooks
}

// Resolver serves signed answers over datagrams with zero per-flow
// sthread creations. The embedded runtime owns the packet loop
// (ServePackets), flow expiry, lifecycle (Drain/Undrain/Close), sizing,
// and observability.
type Resolver struct {
	root  *sthread.Sthread
	hooks Hooks

	zoneTag  tags.Tag
	zoneAddr vm.Addr

	// bufs recycles datagram scratch across batch sweeps; a lightly
	// loaded ring drains one entry per doorbell, so per-sweep allocation
	// would degenerate to per-flow allocation.
	bufs sync.Pool

	*serve.Runtime[dnsConn]
}

// dnsConn is one flow's gate-side state. The FRAG reassembly position
// lives here rather than on the worker's stack so a live cluster handoff
// can move a half-reassembled query to the flow's new home: fragging
// marks a flow that acked a FRAG query and owes its client a
// continuation read, frag holds the first half.
type dnsConn struct {
	queries  int    // datagram queries answered on this flow
	fragging bool   // a FRAG query's ack was sent; next datagram is its continuation
	frag     []byte // the FRAG query's first half
}

// NewPooled places the zone — records and signing key, one blob, one
// tag — and builds the datagram runtime. The worker gate holds no
// privileges beyond the slot's argument tag; only the resolve gate can
// read the zone.
func NewPooled(root *sthread.Sthread, key *rsa.PrivateKey, zone []Record, cfg Config) (*Resolver, error) {
	if err := validateZone(zone); err != nil {
		return nil, err
	}
	r := &Resolver{root: root, hooks: cfg.Hooks}
	r.bufs.New = func() any { return make([]byte, maxDatagram) }
	blob, err := marshalZone(key, zone)
	if err != nil {
		return nil, err
	}
	if r.zoneTag, r.zoneAddr, err = placeBlob(root, blob); err != nil {
		return nil, err
	}
	idle := cfg.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	r.Runtime, err = serve.New(root, serve.App[dnsConn]{
		Name:        "dnsd",
		Slots:       cfg.Slots,
		Schema:      dnsSchema,
		Worker:      "worker",
		IdleTimeout: idle,
		Export:      exportDNS,
		Import:      importDNS,
		Gates: []gatepool.GateDef{
			{
				Name: "worker",
				// The worker body: drain the slot ring one flow per
				// entry, sharing a single datagram buffer across the
				// whole sweep instead of allocating one per flow.
				Batch: func(w *sthread.Sthread, b *sthread.Batch, _ vm.Addr) {
					buf := r.bufs.Get().([]byte)
					for b.More() {
						b.Complete(r.workerServe(w, b.Arg(), buf))
					}
					r.bufs.Put(buf) //nolint:staticcheck // fixed-size scratch, no slicing
				},
			},
			{
				Name:    "resolve",
				SC:      policy.New().MustMemAdd(r.zoneTag, vm.PermRead),
				Trusted: r.zoneAddr,
				Entry:   r.resolveEntry,
			},
		},
		// A refused first packet gets a REFUSED answer, echoing the
		// query's name when it parses — clients see overload, not a
		// timeout. REFUSED carries no signature: it never saw the zone.
		Refuse: func(payload []byte, err error) []byte {
			name, _, ok := parseQuery(payload)
			if !ok {
				name = nil
			}
			return appendAnswer(nil, StatusRefused, name, nil, nil)
		},
	})
	if err != nil {
		root.App().Tags.TagDelete(r.zoneTag)
		return nil, err
	}
	return r, nil
}

// dnsExportVersion versions the dnsd handoff payload.
const dnsExportVersion = 1

// exportDNS serializes a flow for cluster handoff: the query count and
// the FRAG reassembly position. The zone blob — records and the signing
// key — never rides a record: it lives behind the resolve gate's tag at
// every runtime, and the new home's gate signs with its own copy.
func exportDNS(c *serve.Conn[dnsConn]) []byte {
	st := &c.State
	var flags byte
	if st.fragging {
		flags |= 1
	}
	out := make([]byte, 0, 7+len(st.frag))
	out = append(out, dnsExportVersion, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(st.queries))
	frag := st.frag
	if len(frag) > MaxName {
		frag = frag[:MaxName] // unreachable: reassembly enforces MaxName
	}
	out = append(out, byte(len(frag)))
	return append(out, frag...)
}

// importDNS restores a handed-off flow, validating the payload as
// hostile input: version, exact framing, and the first-half length
// against MaxName — an oversized fragment must be refused here, not
// discovered at reassembly.
func importDNS(c *serve.Conn[dnsConn], rec *serve.HandoffRecord) error {
	b := rec.State
	if len(b) < 7 {
		return errors.New("dnsd: import: truncated payload")
	}
	if b[0] != dnsExportVersion {
		return errors.New("dnsd: import: unknown payload version")
	}
	flags := b[1]
	queries := int(binary.LittleEndian.Uint32(b[2:]))
	flen := int(b[6])
	if flen > MaxName || len(b) != 7+flen {
		return errors.New("dnsd: import: malformed fragment")
	}
	c.State.queries = queries
	c.State.fragging = flags&1 != 0
	if flen > 0 {
		c.State.frag = append([]byte(nil), b[7:]...)
	}
	return nil
}

// workerServe is the per-slot query parser serving one flow: it reads
// whole query datagrams from the flow descriptor until the wheel expires
// the flow (the read fails — a clean end). Malformed input is answered
// with FORMERR without ever invoking the resolve gate: the signing key is
// unreachable from the parse path. The datagram scratch is caller-owned;
// the worker body shares one buffer across every entry in a sweep.
func (r *Resolver) workerServe(w *sthread.Sthread, arg vm.Addr, buf []byte) vm.Addr {
	c := r.Lookup(w, arg)
	if c == nil {
		return 0
	}
	if r.hooks.Worker != nil {
		r.hooks.Worker(w, &ConnContext{FD: c.FD, ArgAddr: arg})
	}
	lease := c.Lease
	for {
		n, err := w.Task.ReadFD(c.FD, buf)
		if err != nil {
			return 1 // flow expired (or runtime closing): clean end
		}
		var name []byte
		ok := true
		if c.State.fragging {
			// The flow owes a continuation read — possibly from before a
			// handoff, with the first half restored by Import. Anything
			// but a valid continuation ends the reassembly as FORMERR.
			name = c.State.frag
			c.State.fragging, c.State.frag = false, nil
			part, pok := parseCont(buf[:n])
			if !pok || len(name)+len(part) > MaxName {
				ok = false
			} else {
				name = append(name, part...)
			}
		} else {
			var frag bool
			name, frag, ok = parseQuery(buf[:n])
			if ok && frag {
				// Ack the first half; the next datagram is its
				// continuation. The position is recorded on the conn
				// state before the ack, so a handoff interrupting the
				// wait finds it there.
				c.State.fragging, c.State.frag = true, name
				if _, err := w.Task.WriteFD(c.FD, []byte{'A'}); err != nil {
					return 0
				}
				continue
			}
		}
		if !ok || len(name) == 0 {
			r.reply(w, c.FD, StatusFormErr, nil, nil, nil)
			continue
		}
		c.State.queries++
		if fQName.Store(w, arg, name) != nil {
			r.reply(w, c.FD, StatusFormErr, name, nil, nil)
			continue
		}
		ret, err := lease.Call("resolve", w, arg)
		if err != nil {
			return 0 // the gate died: fail the flow, not just the query
		}
		if ret == 0 {
			r.reply(w, c.FD, StatusServFail, name, nil, nil)
			continue
		}
		status := byte(fStatus.Load(w, arg))
		value, verr := fValue.Load(w, arg)
		sig, serr := fSig.Load(w, arg)
		if verr != nil || serr != nil {
			r.reply(w, c.FD, StatusServFail, name, nil, nil)
			continue
		}
		r.reply(w, c.FD, status, name, value, sig)
	}
}

// reply sends one answer datagram. A write failure means the flow just
// closed under us; the next read observes it, so the error is dropped.
func (r *Resolver) reply(w *sthread.Sthread, fd int, status byte, name, value, sig []byte) {
	w.Task.WriteFD(fd, appendAnswer(nil, status, name, value, sig))
}

// resolveEntry is the zone compartment: check the query name, look it up
// in the zone blob's record table, build the key from the blob, and sign
// status, name, and value as one message. The name is checked before the
// blob is read, so a malformed call costs no key construction. The worker
// supplies only the name and receives only the finished, signed answer —
// it cannot steer what gets signed.
func (r *Resolver) resolveEntry(g *sthread.Sthread, arg, trusted vm.Addr) vm.Addr {
	if r.hooks.Resolve != nil {
		r.hooks.Resolve()
	}
	name, err := fQName.Load(g, arg)
	if err != nil || len(name) == 0 {
		return 0
	}
	key, value, found, err := lookupZone(loadBlob(g, trusted), name)
	if err != nil {
		return 0
	}
	priv, err := minissl.UnmarshalPrivateKey(key)
	if err != nil {
		return 0
	}
	status := StatusNXDomain
	if found {
		status = StatusNoError
	}
	sig, err := signAnswer(priv, status, name, value)
	if err != nil {
		return 0
	}
	fStatus.Store(g, arg, uint64(status))
	if fValue.Store(g, arg, value) != nil {
		return 0
	}
	if fSig.Store(g, arg, sig) != nil {
		return 0
	}
	return 1
}

// ---- wire format -----------------------------------------------------------

// parseQuery validates one query datagram. Strict: exact length, no
// undefined flag bits — anything else is FORMERR and never reaches the
// resolve gate.
func parseQuery(pkt []byte) (name []byte, frag bool, ok bool) {
	if len(pkt) < 3 || pkt[0] != 'Q' || pkt[1]&^byte(flagFrag) != 0 {
		return nil, false, false
	}
	n := int(pkt[2])
	if len(pkt) != 3+n {
		return nil, false, false
	}
	return append([]byte(nil), pkt[3:]...), pkt[1]&flagFrag != 0, true
}

// parseCont validates one continuation datagram.
func parseCont(pkt []byte) (part []byte, ok bool) {
	if len(pkt) < 2 || pkt[0] != 'C' {
		return nil, false
	}
	n := int(pkt[1])
	if len(pkt) != 2+n {
		return nil, false
	}
	return append([]byte(nil), pkt[2:]...), true
}

// appendAnswer builds one answer datagram.
func appendAnswer(dst []byte, status byte, name, value, sig []byte) []byte {
	dst = append(dst, 'R', status, byte(len(name)))
	dst = append(dst, name...)
	dst = append(dst, byte(len(value)), byte(len(value)>>8))
	dst = append(dst, value...)
	dst = append(dst, byte(len(sig)), byte(len(sig)>>8))
	return append(dst, sig...)
}

// signedMessage is the exact byte sequence the zone key signs: status,
// length-prefixed name, value. The length prefix keeps (name, value)
// splits unambiguous.
func signedMessage(status byte, name, value []byte) []byte {
	msg := make([]byte, 0, 2+len(name)+len(value))
	msg = append(msg, status, byte(len(name)))
	msg = append(msg, name...)
	return append(msg, value...)
}

// signAnswer signs sha256(signedMessage) — the gate hashes the message
// it composed itself, so no caller obtains a signature over chosen
// bytes (§5.2).
func signAnswer(priv *rsa.PrivateKey, status byte, name, value []byte) ([]byte, error) {
	sum := sha256.Sum256(signedMessage(status, name, value))
	return rsa.SignPKCS1v15(rand.Reader, priv, 0, sum[:])
}

// ---- zone blob -------------------------------------------------------------

// marshalZone packs the signing key and the records into the one blob
// that lives behind the resolve gate's tag: the length-prefixed key blob
// (minissl's, CRT values included, validated as it is built), then the
// record count, then each record as a length-prefixed name and value.
func marshalZone(priv *rsa.PrivateKey, zone []Record) ([]byte, error) {
	key, err := minissl.MarshalPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	b := le64(nil, len(key))
	b = append(b, key...)
	b = le64(b, len(zone))
	for _, rec := range zone {
		b = le64(b, len(rec.Name))
		b = append(b, rec.Name...)
		b = le64(b, len(rec.Value))
		b = append(b, rec.Value...)
	}
	return b, nil
}

var errZone = errors.New("dnsd: malformed zone blob")

// lookupZone walks a zone blob in place and returns its key bytes and
// the value of the first record named name (the first wins, as in
// Monolithic.answer). Every length is checked against the bytes left,
// across the whole table rather than only up to the match, and the
// table must end the blob: a truncated blob fails every lookup.
func lookupZone(blob, name []byte) (key, value []byte, found bool, err error) {
	key, b, err := cut(blob)
	if err != nil {
		return nil, nil, false, err
	}
	if len(b) < 8 {
		return nil, nil, false, errZone
	}
	count := binary.LittleEndian.Uint64(b)
	b = b[8:]
	for i := uint64(0); i < count; i++ {
		var rn, rv []byte
		if rn, b, err = cut(b); err != nil {
			return nil, nil, false, err
		}
		if rv, b, err = cut(b); err != nil {
			return nil, nil, false, err
		}
		if !found && bytes.Equal(rn, name) {
			value, found = rv, true
		}
	}
	if len(b) != 0 {
		return nil, nil, false, errZone
	}
	return key, value, found, nil
}

func le64(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(n))
}

func cut(b []byte) (field, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, errZone
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-8) {
		return nil, nil, errZone
	}
	return b[8 : 8+n], b[8+n:], nil
}

// placeBlob lands a length-prefixed blob in a fresh tag. On failure no
// tag is left behind.
func placeBlob(root *sthread.Sthread, blob []byte) (tags.Tag, vm.Addr, error) {
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

func loadBlob(s *sthread.Sthread, addr vm.Addr) []byte {
	n := s.Load64(addr)
	out := make([]byte, n)
	s.Read(addr+8, out)
	return out
}
