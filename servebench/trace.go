package main

import (
	"sync"
	"sync/atomic"
	"time"

	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// Spans are timed from outside the program: around the benchmark's own
// calls into each layer, and in the hooks the apps already expose. Each
// span is one histogram shared by every goroutine that stamps it.
const (
	spDial = iota
	spAccept
	spAdmitToBody
	spServeSession
	spReleaseTail
	spGreet
	spUser
	spPass
	spRetr
	spQuit
	spQueryToGate
	spGateToAnswer
	spClusterSession
	spMemberSession
	spSnapshot
	nSpans
)

var spanNames = [nSpans]string{
	spDial:           "netsim.dial_us",
	spAccept:         "netsim.accept_us",
	spAdmitToBody:    "serve.admit_to_body_us",
	spServeSession:   "serve.session_us",
	spReleaseTail:    "serve.release_tail_us",
	spGreet:          "pop3.greet_us",
	spUser:           "pop3.user_us",
	spPass:           "pop3.pass_us",
	spRetr:           "pop3.retr_us",
	spQuit:           "pop3.quit_us",
	spQueryToGate:    "dnsd.query_to_gate_us",
	spGateToAnswer:   "dnsd.gate_to_answer_us",
	spClusterSession: "cluster.session_us",
	spMemberSession:  "cluster.member_session_us",
	spSnapshot:       "cluster.snapshot_us",
}

var epoch = time.Now()

// now is monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// tracer collects one traced phase's spans. A nil *tracer is the plain
// run: every method is then a no-op, so plain and traced runs share one
// code path and differ only by the stamping.
type tracer struct {
	spans [nSpans]hist

	sessions sync.Map // principal -> *sessRec, from dial until the accept loop is done with it
	conns    sync.Map // serve-side *netsim.Conn -> *sessRec, for the handler hook

	resolveAt atomic.Int64 // last resolve-gate entry; one client means one query in flight
	snapshots atomic.Uint64
}

// sessRec is one stream session's cross-goroutine stamps: the client
// stamps dial and bye, the accept loop and serve calls stamp the rest.
type sessRec struct {
	dialRet  atomic.Int64
	bodyAt   atomic.Int64
	serveEnd atomic.Int64
	byeAt    atomic.Int64
	pending  atomic.Int32 // sides (client, serve call) not yet done
}

func (t *tracer) stamp() int64 {
	if t == nil {
		return 0
	}
	return now()
}

// span records the time from start to now under span id.
func (t *tracer) span(id int, start int64) {
	if t == nil {
		return
	}
	t.spans[id].add(now() - start)
}

// reset empties every span at the start of the measured interval.
func (t *tracer) reset() {
	for i := range t.spans {
		h := &t.spans[i]
		for j := range h.buckets {
			h.buckets[j].Store(0)
		}
		h.n.Store(0)
	}
}

// snapshot copies the spans at the end of the measured interval, so
// stamps made while the run winds down are not counted.
func (t *tracer) snapshot() *[nSpans]hist {
	var out [nSpans]hist
	for i := range t.spans {
		out[i].merge(&t.spans[i])
	}
	return &out
}

func (t *tracer) snapshotCount() uint64 {
	if t == nil {
		return 0
	}
	return t.snapshots.Load()
}

// openSession registers a client's session under its principal before
// the client dials.
func (t *tracer) openSession(principal string) *sessRec {
	if t == nil {
		return nil
	}
	rec := &sessRec{}
	rec.pending.Store(2)
	t.sessions.Store(principal, rec)
	return rec
}

func (t *tracer) closeSession(principal string) {
	if t != nil {
		t.sessions.Delete(principal)
	}
}

func (t *tracer) session(principal string) *sessRec {
	if t == nil {
		return nil
	}
	if v, ok := t.sessions.Load(principal); ok {
		return v.(*sessRec)
	}
	return nil
}

// accepted stamps netsim.accept_us: the client's Dial returning to the
// accept loop's Accept returning.
func (t *tracer) accepted(principal string, acceptAt int64) {
	if rec := t.session(principal); rec != nil {
		t.spans[spAccept].add(acceptAt - rec.dialRet.Load())
	}
}

// done marks one side of a session finished; the second side stamps
// serve.release_tail_us, the time from the client reading "+OK bye" to
// the serve call returning (zero when the call returned first).
func (t *tracer) done(rec *sessRec) {
	if rec == nil || rec.pending.Add(-1) != 0 {
		return
	}
	if bye := rec.byeAt.Load(); bye != 0 {
		t.spans[spReleaseTail].add(rec.serveEnd.Load() - bye)
	}
}

// serve runs one serve-layer ServeConnAs call, stamping serve.session_us
// and serve.admit_to_body_us on the principal's session.
func (t *tracer) serve(conn *netsim.Conn, principal string, call func(*netsim.Conn, string) error) error {
	rec := t.session(principal)
	if rec == nil {
		return call(conn, principal)
	}
	t.conns.Store(conn, rec)
	start := now()
	err := call(conn, principal)
	end := now()
	t.conns.Delete(conn)
	t.spans[spServeSession].add(end - start)
	if body := rec.bodyAt.Load(); body != 0 {
		t.spans[spAdmitToBody].add(body - start)
	}
	rec.serveEnd.Store(end)
	t.done(rec)
	return err
}

// pop3Hooks stamps the handler compartment's entry on the session whose
// connection it was handed.
func (t *tracer) pop3Hooks() pop3.Hooks {
	if t == nil {
		return pop3.Hooks{}
	}
	return pop3.Hooks{Handler: func(s *sthread.Sthread, ctx *pop3.ConnContext) {
		f, err := s.Task.FD(ctx.FD, kernel.FDRead)
		if err != nil {
			return
		}
		if c, ok := f.(*netsim.Conn); ok {
			if v, ok := t.conns.Load(c); ok {
				v.(*sessRec).bodyAt.Store(now())
			}
		}
	}}
}

// dnsHooks stamps each resolve-gate entry.
func (t *tracer) dnsHooks() dnsd.Hooks {
	if t == nil {
		return dnsd.Hooks{}
	}
	return dnsd.Hooks{Resolve: func() { t.resolveAt.Store(now()) }}
}

// tracedMember wraps a cluster member's stream backend to time the
// director's calls into it: member sessions and the Snapshot reads that
// routing makes.
type tracedMember struct {
	*pop3.PooledServer
	t *tracer
}

func (m tracedMember) ServeConnAs(conn *netsim.Conn, principal string) error {
	start := now()
	err := m.t.serve(conn, principal, m.PooledServer.ServeConnAs)
	m.t.span(spMemberSession, start)
	return err
}

func (m tracedMember) Snapshot() serve.Snapshot {
	start := now()
	s := m.PooledServer.Snapshot()
	m.t.span(spSnapshot, start)
	m.t.snapshots.Add(1)
	return s
}
