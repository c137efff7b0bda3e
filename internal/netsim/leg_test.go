package netsim

import (
	"errors"
	"io"
	"testing"
	"time"
)

// spliced returns a client conn, the server conn it reaches, and a leg
// of the server conn.
func spliced(t *testing.T) (cl, sv, leg *Conn) {
	t.Helper()
	cl, sv = Pipe("client", "server")
	t.Cleanup(func() { cl.Close(); sv.Close() })
	return cl, sv, sv.Splice("member", "cluster:p")
}

func readN(t *testing.T, c *Conn, n int) string {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return string(buf)
}

func write(t *testing.T, c *Conn, s string) {
	t.Helper()
	if _, err := c.Write([]byte(s)); err != nil {
		t.Fatalf("write %q: %v", s, err)
	}
}

// parked reports whether leg is the current reader and waits in Read.
func parked(leg *Conn) bool {
	p := leg.r
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leg == leg && p.parked
}

// held reports whether a Hold is in effect on the pipe leg reads.
func held(leg *Conn) bool {
	p := leg.r
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitParked(t *testing.T, leg *Conn) {
	t.Helper()
	waitFor(t, "the leg's reader to park", func() bool { return parked(leg) })
}

func TestLegCarriesBothDirections(t *testing.T) {
	var tapped []string
	cl, sv := connPair("client", "server", func(dir Direction, b []byte) {
		tapped = append(tapped, dir.String()+":"+string(b))
	})
	defer cl.Close()
	defer sv.Close()
	leg := sv.Splice("member", "cluster:p")
	if leg.LocalAddr() != "member" || leg.RemoteAddr() != "cluster:p" {
		t.Fatalf("leg labels %q -> %q", leg.LocalAddr(), leg.RemoteAddr())
	}

	write(t, cl, "ping")
	if got := readN(t, leg, 4); got != "ping" {
		t.Fatalf("leg read %q", got)
	}
	write(t, leg, "pong")
	if got := readN(t, cl, 4); got != "pong" {
		t.Fatalf("client read %q", got)
	}
	if len(tapped) != 2 || tapped[0] != "c->s:ping" || tapped[1] != "s->c:pong" {
		t.Fatalf("tap saw %q, want the client's write and the leg's", tapped)
	}
}

func TestNewerLegDetachesOlder(t *testing.T) {
	cl, sv, old := spliced(t)

	// A reader parked on the older leg fails when it is detached.
	readErr := make(chan error, 1)
	go func() {
		_, err := old.Read(make([]byte, 8))
		readErr <- err
	}()
	waitParked(t, old)
	cur := sv.Splice("member2", "cluster:p")
	if err := <-readErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked read on the detached leg: %v, want ErrClosed", err)
	}

	// Through the detached leg nothing is consumed or delivered, and
	// CloseWrite does not reach the conn.
	write(t, cl, "req")
	if n, err := old.Read(make([]byte, 8)); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("read on the detached leg: %d %v", n, err)
	}
	if n, err := old.Write([]byte("stale")); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("write on the detached leg: %d %v", n, err)
	}
	old.CloseWrite()
	old.Close()

	if got := readN(t, cur, 3); got != "req" {
		t.Fatalf("current leg read %q, want the request the old leg left", got)
	}
	write(t, cur, "ok")
	if got := readN(t, cl, 2); got != "ok" {
		t.Fatalf("client read %q: the stale write or close reached it", got)
	}
}

func TestClosingLegLeavesConnOpen(t *testing.T) {
	cl, sv, leg := spliced(t)
	leg.Close()
	if _, err := leg.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}

	// The client can still write, and a new leg reads it and answers.
	write(t, cl, "hello")
	next := sv.Splice("member", "cluster:p")
	if got := readN(t, next, 5); got != "hello" {
		t.Fatalf("new leg read %q", got)
	}
	write(t, next, "world")
	if got := readN(t, cl, 5); got != "world" {
		t.Fatalf("client read %q", got)
	}
}

func TestHoldWaitsForAnsweredPark(t *testing.T) {
	cl, sv, leg := spliced(t)

	// The worker: read a line-terminated request byte by byte, answer
	// it, and read the next.
	served := make(chan string, 4)
	go func() {
		b := make([]byte, 1)
		var req []byte
		for {
			if _, err := leg.Read(b); err != nil {
				close(served)
				return
			}
			req = append(req, b[0])
			if b[0] == '\n' {
				leg.Write([]byte("ok\n"))
				served <- string(req)
				req = req[:0]
			}
		}
	}()

	// Half a request read: the worker is parked but owes an answer.
	write(t, cl, "ab")
	waitParked(t, leg)
	holdDone := make(chan bool, 1)
	go func() { holdDone <- leg.Hold() }()
	waitFor(t, "the hold", func() bool { return held(leg) })
	select {
	case ok := <-holdDone:
		t.Fatalf("Hold returned %v with a request half read", ok)
	case <-time.After(20 * time.Millisecond):
	}

	// The rest of the request is read through the hold and answered;
	// then the worker parks with nothing owed and Hold returns.
	write(t, cl, "c\n")
	if ok := <-holdDone; !ok {
		t.Fatal("Hold returned false on a live leg")
	}
	if got := <-served; got != "abc\n" {
		t.Fatalf("served %q", got)
	}
	if got := readN(t, cl, 3); got != "ok\n" {
		t.Fatalf("client read %q", got)
	}
	if !parked(leg) {
		t.Fatal("Hold returned before the reader parked")
	}

	// Bytes sent while held stay in the pipe, even the EOF behind them;
	// the held reader serves nothing more and fails at the splice.
	write(t, cl, "de")
	write(t, cl, "f\n")
	cl.CloseWrite()
	next := sv.Splice("member2", "cluster:p")
	if got, ok := <-served; ok {
		t.Fatalf("the held leg served %q", got)
	}

	// The next leg reads them once, in order, and then the EOF.
	got, err := io.ReadAll(next)
	if err != nil || string(got) != "def\n" {
		t.Fatalf("next leg read %q, %v; want \"def\\n\" then EOF", got, err)
	}
}

func TestHoldFalseOnDetachAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(sv, leg *Conn)
	}{
		{"detach", func(sv, _ *Conn) { sv.Splice("member2", "cluster:p") }},
		{"close leg", func(_, leg *Conn) { leg.Close() }},
		{"close conn", func(sv, _ *Conn) { sv.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sv, leg := spliced(t)
			// No reader ever parks, so Hold waits until the leg ends.
			holdDone := make(chan bool, 1)
			go func() { holdDone <- leg.Hold() }()
			waitFor(t, "the hold", func() bool { return held(leg) })
			tc.end(sv, leg)
			if ok := <-holdDone; ok {
				t.Fatal("Hold returned true on an ended leg")
			}
			if leg.Hold() {
				t.Fatal("a second Hold returned true on an ended leg")
			}
		})
	}
}

func TestLegSeesPeerEOF(t *testing.T) {
	cl, _, leg := spliced(t)
	write(t, cl, "bye")
	cl.Close()
	got, err := io.ReadAll(leg)
	if err != nil || string(got) != "bye" {
		t.Fatalf("leg read %q, %v; want \"bye\" then EOF", got, err)
	}
}
