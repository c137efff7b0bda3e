// Live session handoff: the serve-runtime half of the cluster's rolling
// drain. A draining runtime exports an in-flight principal's session as
// a HandoffRecord — the app's own serialized session state — and a peer
// runtime re-admits it with ResumeConnAs / OpenFlow, so the client
// never observes the move.
//
// The trust argument, stated once and enforced everywhere below:
//
//   - A record crosses runtimes, so the importing side treats every byte
//     of it as hostile input. The schema hash must match exactly (a
//     typed *SchemaMismatchError refusal otherwise), and the app's Import
//     hook must bounds-check its own payload before trusting a field of
//     it.
//   - Secrets never ride a record. The argument block is not exported —
//     after a login it can still hold the client's password — and the
//     app's Export hook serializes only protocol position and state the
//     importing side can re-validate; private keys, password databases,
//     and other store-side material stay home — the importing runtime
//     reaches them through its own gates, exactly as if the session had
//     started there.
//
// The handoff/completion race is settled by a per-connection rendezvous
// (Conn.hmu): either HandoffPrincipal marks the session first — then the
// unwinding serve path is guaranteed to observe the mark and retire the
// admission as handed — or the session reaches its completion point
// first and the mark is refused with ErrNoSession, which the caller
// reads as "already finished, nothing to move".

package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wedge/internal/netsim"
)

// Typed handoff errors.
var (
	// ErrHandedOff is returned by the serve path for a session that was
	// exported mid-flight: the admission is retired under the Handed
	// counter and the client leg lives on at the record's new home.
	ErrHandedOff = errors.New("serve: session handed off")

	// ErrNoSession means the named principal has no in-flight session to
	// hand off (it never existed, already completed, or is already being
	// handed off).
	ErrNoSession = errors.New("serve: no in-flight session for principal")

	// ErrSchemaMismatch is the errors.Is target for every refused
	// transfer (wrong app, wrong schema hash).
	ErrSchemaMismatch = errors.New("serve: handoff schema mismatch")
)

// SchemaMismatchError is the typed refusal for a record this runtime
// must not import: the record names a different app, or its schema hash
// differs from the importing schema's — meaning the two builds would
// disagree about the block bytes.
type SchemaMismatchError struct {
	App  string // the importing runtime's app
	From string // the record's app name
	Want uint64 // the importing schema's hash
	Got  uint64 // the record's hash
}

func (e *SchemaMismatchError) Error() string {
	if e.From != e.App {
		return fmt.Sprintf("serve: %s: refusing handoff record for app %q", e.App, e.From)
	}
	return fmt.Sprintf("serve: %s: refusing handoff: schema hash %#x, record has %#x",
		e.App, e.Want, e.Got)
}

// Is makes errors.Is(err, ErrSchemaMismatch) match.
func (e *SchemaMismatchError) Is(target error) bool { return target == ErrSchemaMismatch }

// HandoffRecord is one exported session. It is a wire object: Marshal
// and UnmarshalHandoffRecord bound every field, and the importing
// runtime re-validates everything (checkRecord) regardless of how the
// record arrived.
type HandoffRecord struct {
	App        string // exporting app name; must equal the importer's
	SchemaHash uint64 // exporting schema's layout hash; must match exactly
	Principal  string // the session's principal key
	State      []byte // App.Export payload; app-validated on import
}

// Wire caps. A record is client-session metadata, not bulk transfer;
// anything past these bounds is malformed by construction.
const (
	handoffVersion      = 2
	maxHandoffApp       = 64
	maxHandoffPrincipal = 256
	maxHandoffState     = 64 << 10
)

// ErrBadHandoff is the errors.Is target for a record that fails wire
// validation before any schema question is even asked.
var ErrBadHandoff = errors.New("serve: malformed handoff record")

// Marshal serializes the record: a version byte, then length-prefixed
// fields in fixed order, little-endian.
func (rec *HandoffRecord) Marshal() []byte {
	n := 1 + 2 + len(rec.App) + 8 + 2 + len(rec.Principal) + 4 + len(rec.State)
	out := make([]byte, 0, n)
	out = append(out, handoffVersion)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(rec.App)))
	out = append(out, rec.App...)
	out = binary.LittleEndian.AppendUint64(out, rec.SchemaHash)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(rec.Principal)))
	out = append(out, rec.Principal...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.State)))
	out = append(out, rec.State...)
	return out
}

// UnmarshalHandoffRecord parses a wire record with every length checked
// against its cap before a single byte is copied; trailing bytes are
// refused. The result still needs checkRecord at the importing runtime —
// this is only the transport-shape validation.
func UnmarshalHandoffRecord(p []byte) (*HandoffRecord, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadHandoff)
	}
	if p[0] != handoffVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadHandoff, p[0])
	}
	rec := &HandoffRecord{}
	p = p[1:]
	str := func(cap int, what string) (string, error) {
		if len(p) < 2 {
			return "", fmt.Errorf("%w: truncated %s length", ErrBadHandoff, what)
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if n > cap || n > len(p) {
			return "", fmt.Errorf("%w: %s length %d (cap %d, remaining %d)",
				ErrBadHandoff, what, n, cap, len(p))
		}
		s := string(p[:n])
		p = p[n:]
		return s, nil
	}
	blob := func(cap int, what string) ([]byte, error) {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: truncated %s length", ErrBadHandoff, what)
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if n > cap || n > len(p) {
			return nil, fmt.Errorf("%w: %s length %d (cap %d, remaining %d)",
				ErrBadHandoff, what, n, cap, len(p))
		}
		var b []byte
		if n > 0 {
			b = append([]byte(nil), p[:n]...)
		}
		p = p[n:]
		return b, nil
	}
	var err error
	if rec.App, err = str(maxHandoffApp, "app"); err != nil {
		return nil, err
	}
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: truncated schema hash", ErrBadHandoff)
	}
	rec.SchemaHash = binary.LittleEndian.Uint64(p)
	p = p[8:]
	if rec.Principal, err = str(maxHandoffPrincipal, "principal"); err != nil {
		return nil, err
	}
	if rec.State, err = blob(maxHandoffState, "state"); err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadHandoff, len(p))
	}
	return rec, nil
}

// handoff is the rendezvous object between HandoffPrincipal (which
// creates it, interrupts the worker, and waits) and the unwinding serve
// path (which observes it, assembles the record, and closes done).
type handoff struct {
	rec  *HandoffRecord
	done chan struct{}
}

// SchemaHash is the runtime's schema layout identity — the value the
// cluster director compares before routing a handoff (gateabi
// Schema.Hash).
func (r *Runtime[T]) SchemaHash() uint64 { return r.app.Schema.Hash() }

// HandoffPrincipal exports the named principal's in-flight session and
// retires it under the Handed counter. The session must be at rest, its
// worker parked on its blocked read with every request answered: the
// read is failed and the unwind completes the export. A stream's caller
// holds the session's leg first (netsim.Conn.Hold). A flow is held here:
// with its peer's datagrams held back by the caller, HandoffPrincipal
// first waits until the worker is parked in Read on an empty queue.
// Returns ErrNoSession when the principal has no live session (including
// "it just completed" — the benign race); after a flow's hold that can
// only mean the flow ended.
func (r *Runtime[T]) HandoffPrincipal(principal string) (*HandoffRecord, error) {
	r.fmu.Lock()
	f := r.flows[principal]
	r.fmu.Unlock()
	if f != nil && !f.hold() {
		return nil, ErrNoSession
	}
	var c *Conn[T]
	r.conns.Range(func(_ uint64, cc *Conn[T]) bool {
		if cc.Principal == principal {
			c = cc
			return false
		}
		return true
	})
	if c == nil {
		return nil, ErrNoSession
	}
	h := &handoff{done: make(chan struct{})}
	c.hmu.Lock()
	if c.completing || c.hand != nil {
		c.hmu.Unlock()
		return nil, ErrNoSession
	}
	c.hand = h
	c.hmu.Unlock()
	c.file.Close() // fails the worker's blocked read
	<-h.done
	return h.rec, nil
}

// finishExport runs on the unwinding serve path once a handoff mark was
// observed: assemble the record (app payload exported now, while c.State
// is still live) and release the waiting HandoffPrincipal.
func (r *Runtime[T]) finishExport(c *Conn[T], h *handoff) {
	rec := &HandoffRecord{
		App:        r.app.Name,
		SchemaHash: r.app.Schema.Hash(),
		Principal:  c.Principal,
	}
	if r.app.Export != nil {
		rec.State = r.app.Export(c)
	}
	h.rec = rec
	close(h.done)
}

// checkRecord is the import-side gate: app identity, schema hash, and
// field bounds are all validated before any resume is attempted. The
// record is hostile input; nothing in it is trusted past this point
// except as bounded bytes.
func (r *Runtime[T]) checkRecord(rec *HandoffRecord) error {
	if rec == nil {
		return fmt.Errorf("%w: nil record", ErrBadHandoff)
	}
	want := r.app.Schema.Hash()
	if rec.App != r.app.Name || rec.SchemaHash != want {
		return &SchemaMismatchError{App: r.app.Name, From: rec.App,
			Want: want, Got: rec.SchemaHash}
	}
	if len(rec.Principal) == 0 || len(rec.Principal) > maxHandoffPrincipal {
		return fmt.Errorf("%w: principal length %d", ErrBadHandoff, len(rec.Principal))
	}
	if len(rec.State) > maxHandoffState {
		return fmt.Errorf("%w: state length %d", ErrBadHandoff, len(rec.State))
	}
	return nil
}

// admitResume admits a resumed session past the queue bound: the session
// was already admitted once — at its first home and at the cluster's
// front door — and is mid-protocol, so bouncing it on a transient queue
// high-water mark would turn a rebalance into a client-visible failure.
// Only the lifecycle gate applies: a draining or closed runtime still
// refuses (typed, errors.Is ErrOverloaded), and the director falls back
// to another peer.
func (r *Runtime[T]) admitResume() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateServing {
		r.rejected++
		return &OverloadError{App: r.app.Name, State: r.state}
	}
	r.inflight++
	r.admitted++
	return nil
}

// ResumeConnAs re-admits a handed-off stream session on a new client
// leg. The record is validated as hostile input (schema hash, field
// bounds) before admission; the app's Import hook then restores its own
// payload — also under its own validation — and the worker runs with
// c.Resumed set so it skips the protocol steps the first home already
// performed.
func (r *Runtime[T]) ResumeConnAs(conn *netsim.Conn, principal string, rec *HandoffRecord) error {
	if err := r.checkRecord(rec); err != nil {
		return err
	}
	r.autoSync()
	if err := r.admitResume(); err != nil {
		return err
	}
	return r.session(principal, r.streamFile(conn), nil, rec)
}
