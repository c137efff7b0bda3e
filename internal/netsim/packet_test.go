package netsim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestPacketRoundTrip(t *testing.T) {
	n := New()
	srv, err := n.ListenPacket("dns-server")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialPacket()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteTo([]byte("query"), "dns-server"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	got, from, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:got]) != "query" || from != cli.Addr() {
		t.Fatalf("ReadFrom = %q from %q, want %q from %q", buf[:got], from, "query", cli.Addr())
	}
	// Reply to the reported source address.
	if _, err := srv.WriteTo([]byte("answer"), from); err != nil {
		t.Fatal(err)
	}
	got, from, err = cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:got]) != "answer" || from != "dns-server" {
		t.Fatalf("reply = %q from %q", buf[:got], from)
	}
}

// TestPacketBoundaries: two writes are two reads, never coalesced, and a
// short read buffer truncates the datagram rather than buffering a tail.
func TestPacketBoundaries(t *testing.T) {
	n := New()
	srv, _ := n.ListenPacket("s")
	cli, _ := n.DialPacket()
	cli.WriteTo([]byte("aaaa"), "s")
	cli.WriteTo([]byte("bb"), "s")
	buf := make([]byte, 2)
	got, _, _ := srv.ReadFrom(buf)
	if !bytes.Equal(buf[:got], []byte("aa")) {
		t.Fatalf("first read = %q, want truncated \"aa\"", buf[:got])
	}
	got, _, _ = srv.ReadFrom(buf)
	if !bytes.Equal(buf[:got], []byte("bb")) {
		t.Fatalf("second read = %q, want \"bb\" (no carry-over)", buf[:got])
	}
}

// TestPacketDrop: writes to unbound addresses succeed and vanish.
func TestPacketDrop(t *testing.T) {
	n := New()
	cli, _ := n.DialPacket()
	if _, err := cli.WriteTo([]byte("x"), "nobody-home"); err != nil {
		t.Fatalf("write to unbound addr: %v (want silent drop)", err)
	}
}

// TestPacketClose: Close wakes a blocked reader with ErrClosed, frees
// the address for rebinding, and later writes to the socket fail.
func TestPacketClose(t *testing.T) {
	n := New()
	srv, _ := n.ListenPacket("s")
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadFrom(make([]byte, 8))
		done <- err
	}()
	srv.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked ReadFrom after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.WriteTo([]byte("x"), "s"); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteTo after Close: %v, want ErrClosed", err)
	}
	if _, err := n.ListenPacket("s"); err != nil {
		t.Fatalf("rebind after Close: %v", err)
	}
}

// TestPacketAddrNamespace: stream and packet binds share one namespace.
func TestPacketAddrNamespace(t *testing.T) {
	n := New()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ListenPacket("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("packet bind over stream bind: %v, want ErrAddrInUse", err)
	}
	if _, err := n.ListenPacket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("stream bind over packet bind: %v, want ErrAddrInUse", err)
	}
}

// TestPacketConcurrent: many senders, one receiver, all datagrams that
// fit the queue arrive intact (race test under -race).
func TestPacketConcurrent(t *testing.T) {
	n := New()
	srv, _ := n.ListenPacket("s")
	const senders, per = 8, 16
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, _ := n.DialPacket()
			for j := 0; j < per; j++ {
				cli.WriteTo([]byte("m"), "s")
			}
		}()
	}
	wg.Wait()
	buf := make([]byte, 8)
	for i := 0; i < senders*per; i++ {
		if _, _, err := srv.ReadFrom(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

// TestPacketLeg: a leg sends only to its peer, from the socket's own
// address; detaching it fails its writes and leaves the socket serving.
func TestPacketLeg(t *testing.T) {
	n := New()
	front, _ := n.ListenPacket("front")
	a, _ := n.DialPacket()
	b, _ := n.DialPacket()
	leg := front.Splice(a.Addr())
	if leg.Peer() != a.Addr() {
		t.Fatalf("leg peer = %q, want %q", leg.Peer(), a.Addr())
	}
	if _, err := leg.Write([]byte("answer")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	got, from, err := a.ReadFrom(buf)
	if err != nil || string(buf[:got]) != "answer" || from != "front" {
		t.Fatalf("peer read %q from %q (%v), want \"answer\" from front", buf[:got], from, err)
	}

	leg.Close()
	if _, err := leg.Write([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on a detached leg: %v, want ErrClosed", err)
	}
	// The socket is untouched: it still reads, and a new leg still sends.
	b.WriteTo([]byte("query"), "front")
	if got, from, err := front.ReadFrom(buf); err != nil || string(buf[:got]) != "query" || from != b.Addr() {
		t.Fatalf("front read %q from %q (%v) after a leg detached", buf[:got], from, err)
	}
	front.Splice(b.Addr()).Write([]byte("ok"))
	if got, _, err := b.ReadFrom(buf); err != nil || string(buf[:got]) != "ok" {
		t.Fatalf("second leg: %q %v", buf[:got], err)
	}
	// Nothing the detached leg tried reached its peer.
	a.mu.Lock()
	queued := len(a.queue)
	a.mu.Unlock()
	if queued != 0 {
		t.Fatalf("the detached leg's peer has %d queued datagrams, want 0", queued)
	}
}
