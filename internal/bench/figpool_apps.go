// FigPool cells for the sshd and pop3 workloads: the gatepool scaling
// experiment applied to the other two application studies. Each cell
// serves `total` sessions with `conns` concurrent clients, exactly like
// the httpd cell, so the three apps' ladders are comparable: mono (no
// isolation), the per-connection partitioned build (one worker sthread
// plus per-connection gate instantiations), and the pooled build (zero
// sthread creations on the serving path).

package bench

import (
	"bytes"
	"crypto/rsa"
	"fmt"
	"sort"
	"sync"
	"time"

	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sshd"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// CellStats is one cell's measurement: throughput plus the latency
// distribution of the sessions behind it. Throughput alone hides tail
// collapse — a variant can hold its rate while its slowest sessions
// degrade by an order of magnitude — so every cell reports p50/p99 too.
type CellStats struct {
	RPS float64
	P50 time.Duration // median session latency
	P99 time.Duration // tail session latency
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// pooledRuntime is the serve-runtime surface every pooled server
// delegates; the cells use it to apply the PoolOpts knobs uniformly.
type pooledRuntime interface {
	Serve(*netsim.Listener) error
	Drain()
	Undrain()
	Snapshot() serve.Snapshot
	SetQueue(int)
	SetAutoSlots(bool)
	Close() error
}

// pooledCellServer wires a pooled server into the harness: the runtime
// owns the accept loop, the -queue and -autoslots knobs are applied
// before serving, and when opts.Drain is set a drain/undrain cycle runs
// at teardown, verified quiescent via *drainErr (the close hook cannot
// return an error).
func pooledCellServer(srv pooledRuntime, opts PoolOpts, drainErr *error) cellServer {
	if opts.Queue != 0 {
		srv.SetQueue(opts.Queue)
	}
	if opts.AutoSlots {
		srv.SetAutoSlots(true)
	}
	return cellServer{
		loop: func(l *netsim.Listener) { srv.Serve(l) },
		close: func() {
			if opts.Drain {
				srv.Drain()
				if s := srv.Snapshot(); s.State != serve.StateDraining || s.Inflight != 0 || s.Pool.Busy != 0 {
					*drainErr = fmt.Errorf("drain left %s state=%v inflight=%d busy=%d",
						s.App, s.State, s.Inflight, s.Pool.Busy)
				}
				srv.Undrain()
			}
			srv.Close()
		},
	}
}

// cellServer is what a cell's build function hands the harness: a
// per-connection entry (driven by the harness's default accept loop) or
// a loop that owns accepting itself (the pooled variants hand the
// listener to serve.Runtime.Serve), plus optional teardown.
type cellServer struct {
	serve func(*netsim.Conn) error // per-connection entry (default loop)
	loop  func(*netsim.Listener)   // optional: the server owns the accept loop
	close func()                   // optional teardown
}

// benchPremain installs the realistic pre-main image (figPoolImage
// touched pages) on a booted app.
func benchPremain(app *sthread.App) {
	app.Premain(func(init *kernel.Task) {
		base, err := init.Mmap(figPoolImage, vm.PermRW)
		if err != nil {
			panic(err)
		}
		for off := 0; off < figPoolImage; off += vm.PageSize {
			init.AS.Store64(base+vm.Addr(off), uint64(off))
		}
	})
}

// driveCell is the load phase shared by the stream and packet
// harnesses: conns client goroutines drive total sessions, retrying
// failures as a load generator would (so transient shedding charges the
// variant's throughput instead of aborting the experiment), timing each
// session end-to-end including its retries — the latency the client
// experienced, not the latency of the attempt that happened to succeed.
func driveCell(k *kernel.Kernel, request func(k *kernel.Kernel) error,
	conns, total int) (CellStats, error) {
	perClient := total / conns
	errs := make(chan error, conns)
	lats := make([][]time.Duration, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		lats[c] = make([]time.Duration, 0, perClient)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				err := request(k)
				for retry := 0; err != nil && retry < 8; retry++ {
					err = request(k)
				}
				if err != nil {
					errs <- err
					return
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return CellStats{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return CellStats{
		RPS: float64(total) / elapsed.Seconds(),
		P50: percentile(all, 0.50),
		P99: percentile(all, 0.99),
	}, nil
}

// poolCellHarness runs one concurrently-dispatching server cell: boot a
// kernel with the realistic pre-main image, serve connections until the
// drivers are done, and drive total sessions with conns retrying
// clients, returning sessions/second and latency percentiles. The
// accept loop runs until the listener is closed (after every client
// finishes) rather than counting accepts: retried sessions consume
// extra accepts, and a fixed accept budget would strand the retry — and
// hang the cell — whenever any accepted session failed.
func poolCellHarness(setup func(k *kernel.Kernel) error,
	build func(root *sthread.Sthread) (cellServer, error),
	addr string, request func(k *kernel.Kernel) error,
	conns, total int) (CellStats, error) {
	k := kernel.New()
	if err := setup(k); err != nil {
		return CellStats{}, err
	}
	app := sthread.Boot(k)
	benchPremain(app)

	ready := make(chan *netsim.Listener, 1)
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := build(root)
			if err != nil {
				panic(err)
			}
			if srv.close != nil {
				defer srv.close()
			}
			l, err := root.Task.Listen(addr)
			if err != nil {
				panic(err)
			}
			ready <- l
			if srv.loop != nil {
				srv.loop(l) // e.g. serve.Runtime.Serve: returns at close
				return
			}
			var wg sync.WaitGroup
			for {
				c, err := l.Accept()
				if err != nil {
					break // listener closed: the drivers are done
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					srv.serve(c)
				}()
			}
			wg.Wait()
		})
	}()
	l := <-ready

	stats, derr := driveCell(k, request, conns, total)
	l.Close()
	if derr != nil {
		return CellStats{}, derr
	}
	if err := <-done; err != nil {
		return CellStats{}, err
	}
	return stats, nil
}

// packetCellServer is the datagram analogue of cellServer: datagram
// servers always own their packet loop (there is no accept to
// dispatch), so only the loop and teardown vary.
type packetCellServer struct {
	loop  func(*netsim.PacketConn)
	close func()
}

// packetPoolCellHarness is poolCellHarness for datagram cells: the
// server binds a packet socket instead of a listener, and the loop runs
// until the socket closes.
func packetPoolCellHarness(build func(root *sthread.Sthread) (packetCellServer, error),
	addr string, request func(k *kernel.Kernel) error,
	conns, total int) (CellStats, error) {
	k := kernel.New()
	app := sthread.Boot(k)
	benchPremain(app)

	ready := make(chan *netsim.PacketConn, 1)
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := build(root)
			if err != nil {
				panic(err)
			}
			if srv.close != nil {
				defer srv.close()
			}
			pc, err := root.Task.ListenPacket(addr)
			if err != nil {
				panic(err)
			}
			ready <- pc
			srv.loop(pc)
		})
	}()
	pc := <-ready

	stats, derr := driveCell(k, request, conns, total)
	pc.Close()
	if derr != nil {
		return CellStats{}, derr
	}
	if err := <-done; err != nil {
		return CellStats{}, err
	}
	return stats, nil
}

// sshdPoolCell measures one sshd variant: a session is the host-key
// handshake (one RSA signature — the load the pool spreads), a password
// login, and exit.
func sshdPoolCell(variant string, conns, total, poolSlots int, opts PoolOpts) (CellStats, error) {
	hostKey, err := minissl.GenerateServerKey()
	if err != nil {
		return CellStats{}, err
	}
	users := []sshd.User{{Name: "alice", Password: "sesame", UID: 1000}}
	cfg := sshd.ServerConfig{HostKey: hostKey}

	var drainErr error
	stats, err := poolCellHarness(
		func(k *kernel.Kernel) error { return sshd.SetupUsers(k, users) },
		func(root *sthread.Sthread) (cellServer, error) {
			switch variant {
			case "mono":
				return cellServer{serve: sshd.NewMonolithic(root, cfg, sshd.MonoHooks{}).ServeConn}, nil
			case "wedge":
				srv, err := sshd.NewWedge(root, cfg, sshd.WedgeHooks{})
				if err != nil {
					return cellServer{}, err
				}
				return cellServer{serve: srv.ServeConn}, nil
			case "pooled":
				srv, err := sshd.NewPooledWedge(root, cfg, poolSlots, sshd.WedgeHooks{})
				if err != nil {
					return cellServer{}, err
				}
				return pooledCellServer(srv, opts, &drainErr), nil
			}
			return cellServer{}, fmt.Errorf("unknown sshd variant %q", variant)
		},
		"sshd:22",
		func(k *kernel.Kernel) error {
			conn, err := k.Net.Dial("sshd:22")
			if err != nil {
				return err
			}
			defer conn.Close()
			c, err := sshd.NewClient(conn, &hostKey.PublicKey)
			if err != nil {
				return err
			}
			if err := c.AuthPassword("alice", "sesame"); err != nil {
				return err
			}
			return c.Exit()
		},
		conns, total)
	if err == nil {
		err = drainErr
	}
	if err != nil {
		return CellStats{}, fmt.Errorf("sshd %s c=%d: %w", variant, conns, err)
	}
	return stats, nil
}

// privsepPoolCell measures one privilege-separation build: a session is
// the host-key handshake, a password login, and exit — the same work as
// the sshd cell, so the §5.2 contrast (fork-per-connection monitor vs
// pooled monitor gates) is directly comparable to the Wedge ladder. The
// "privsep" variant forks one slave per connection and serves monitor
// requests over channel IPC; "pooled" runs the monitor interface as
// pooled recycled gates under the serve runtime.
func privsepPoolCell(variant string, conns, total, poolSlots int, opts PoolOpts) (CellStats, error) {
	hostKey, err := minissl.GenerateServerKey()
	if err != nil {
		return CellStats{}, err
	}
	users := []sshd.User{{Name: "alice", Password: "sesame", UID: 1000}}
	cfg := sshd.ServerConfig{HostKey: hostKey}

	var drainErr error
	stats, err := poolCellHarness(
		func(k *kernel.Kernel) error { return sshd.SetupUsers(k, users) },
		func(root *sthread.Sthread) (cellServer, error) {
			switch variant {
			case "privsep":
				srv, err := sshd.NewPrivsep(root, cfg, "", sshd.PrivsepHooks{})
				if err != nil {
					return cellServer{}, err
				}
				return cellServer{serve: srv.ServeConn}, nil
			case "pooled":
				srv, err := sshd.NewPooledPrivsep(root, cfg, poolSlots, sshd.WedgeHooks{})
				if err != nil {
					return cellServer{}, err
				}
				return pooledCellServer(srv, opts, &drainErr), nil
			}
			return cellServer{}, fmt.Errorf("unknown privsep variant %q", variant)
		},
		"sshd:22",
		func(k *kernel.Kernel) error {
			conn, err := k.Net.Dial("sshd:22")
			if err != nil {
				return err
			}
			defer conn.Close()
			c, err := sshd.NewClient(conn, &hostKey.PublicKey)
			if err != nil {
				return err
			}
			if err := c.AuthPassword("alice", "sesame"); err != nil {
				return err
			}
			return c.Exit()
		},
		conns, total)
	if err == nil {
		err = drainErr
	}
	if err != nil {
		return CellStats{}, fmt.Errorf("privsep %s c=%d: %w", variant, conns, err)
	}
	return stats, nil
}

// pop3PoolCell measures one pop3 variant: a session is login, one
// retrieval, and quit. No RSA is involved, so the cell isolates the pure
// partitioning overhead (sthread and gate creations per session) that
// the pool amortizes.
func pop3PoolCell(variant string, conns, total, poolSlots int, opts PoolOpts) (CellStats, error) {
	boxes := []pop3.Mailbox{
		{User: "alice", Password: "sesame", UID: 1000,
			Messages: []string{"From: bench\n\nmessage one", "From: bench\n\nmessage two"}},
	}

	var drainErr error
	stats, err := poolCellHarness(
		func(k *kernel.Kernel) error { return nil },
		func(root *sthread.Sthread) (cellServer, error) {
			switch variant {
			case "mono":
				srv, err := pop3.NewMonolithic(root, boxes, pop3.Hooks{})
				if err != nil {
					return cellServer{}, err
				}
				return cellServer{serve: srv.ServeConn}, nil
			case "wedge":
				srv, err := pop3.New(root, boxes, pop3.Hooks{})
				if err != nil {
					return cellServer{}, err
				}
				return cellServer{serve: srv.ServeConn}, nil
			case "pooled":
				srv, err := pop3.NewPooled(root, boxes, poolSlots, pop3.Hooks{})
				if err != nil {
					return cellServer{}, err
				}
				return pooledCellServer(srv, opts, &drainErr), nil
			}
			return cellServer{}, fmt.Errorf("unknown pop3 variant %q", variant)
		},
		"pop3:110",
		func(k *kernel.Kernel) error { return pop3BenchSession(k) },
		conns, total)
	if err == nil {
		err = drainErr
	}
	if err != nil {
		return CellStats{}, fmt.Errorf("pop3 %s c=%d: %w", variant, conns, err)
	}
	return stats, nil
}

// dnsdBenchIdle is the pooled dnsd cell's flow-expiry window. Datagram
// flows give their slots back only by idle expiry — there is no FIN —
// so the window is short enough that slots recycle under the cell's
// per-query principals, but long enough to be several wheel ticks.
const dnsdBenchIdle = 10 * time.Millisecond

// settlePacket waits for a packet runtime's last flows to expire:
// quiescence lags the final client by up to the idle window, and
// judging the drain check before the wheel has run would charge the
// variant a spurious failure.
func settlePacket(snap func() serve.Snapshot) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := snap()
		if s.Flows == 0 && s.Inflight == 0 && s.Pool.Busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("packet cell not quiescent: flows=%d inflight=%d busy=%d",
				s.Flows, s.Inflight, s.Pool.Busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dnsdPoolCell measures one dnsd variant: a session is one signed query
// resolving a known name and verifying the signature. The "pooled"
// cell's sessions are fresh-source (every query a new principal, so the
// pooled build admits a new flow each time): its flows return their
// slots only by idle expiry, so that cell is exactly the datagram
// runtime's worst case — admission, worker invocation, gate call, and
// wheel-driven slot recycling all on the serving path — against the
// mono baseline that answers from one loop. The "pooled-reuse" cell is
// the complement: each client keeps one packet socket — one returning
// principal — for its whole run, so after the first query every session
// lands on a live flow lease (no admission, no scrub, no recycling) and
// consecutive same-principal ring entries take the scrub-skip path.
func dnsdPoolCell(variant string, conns, total, poolSlots int, opts PoolOpts) (CellStats, error) {
	key, err := minissl.GenerateServerKey()
	if err != nil {
		return CellStats{}, err
	}
	zone := []dnsd.Record{{Name: "www.example", Value: "192.0.2.80"}}

	var drainErr error
	stats, err := packetPoolCellHarness(
		func(root *sthread.Sthread) (packetCellServer, error) {
			switch variant {
			case "mono":
				srv, err := dnsd.NewMonolithic(key, zone)
				if err != nil {
					return packetCellServer{}, err
				}
				return packetCellServer{loop: func(pc *netsim.PacketConn) { srv.ServePackets(pc) }}, nil
			case "pooled", "pooled-reuse":
				slots := poolSlots
				autoSlots := opts.AutoSlots
				if variant == "pooled-reuse" {
					// A flow pins its slot for its lifetime, and a reuse
					// client's flow never idles: fewer slots than persistent
					// principals would leave the surplus flows queued in the
					// pool behind leases that never release. One slot per
					// client, and no AutoSlots resync to shrink it underneath
					// them.
					slots = conns
					autoSlots = false
				}
				srv, err := dnsd.NewPooled(root, key, zone, dnsd.Config{
					Slots:       slots,
					IdleTimeout: dnsdBenchIdle,
				})
				if err != nil {
					return packetCellServer{}, err
				}
				if opts.Queue != 0 {
					srv.SetQueue(opts.Queue)
				}
				if autoSlots {
					srv.SetAutoSlots(true)
				}
				return packetCellServer{
					loop: func(pc *netsim.PacketConn) { srv.ServePackets(pc) },
					close: func() {
						if err := settlePacket(srv.Snapshot); err != nil {
							drainErr = err
						} else if opts.Drain {
							srv.Drain()
							if s := srv.Snapshot(); s.State != serve.StateDraining || s.Inflight != 0 || s.Pool.Busy != 0 {
								drainErr = fmt.Errorf("drain left %s state=%v inflight=%d busy=%d",
									s.App, s.State, s.Inflight, s.Pool.Busy)
							}
							srv.Undrain()
						}
						srv.Close()
					},
				}, nil
			}
			return packetCellServer{}, fmt.Errorf("unknown dnsd variant %q", variant)
		},
		"dns:53",
		dnsdBenchQuery(variant == "pooled-reuse", conns, &key.PublicKey),
		conns, total)
	if err == nil {
		err = drainErr
	}
	if err != nil {
		return CellStats{}, fmt.Errorf("dnsd %s c=%d: %w", variant, conns, err)
	}
	return stats, nil
}

// dnsdBenchQuery builds the per-session request for the dnsd cells: one
// signed query, answer verified. Fresh-principal cells dial a new packet
// socket per session; the reuse cell circulates up to conns sockets
// through a handoff channel, so every session after a socket's first
// arrives from a principal the server already holds a live flow for. A
// failed session's socket is closed, not recirculated — a datagram lost
// mid-exchange would desync the next session on that socket.
func dnsdBenchQuery(reuse bool, conns int, pub *rsa.PublicKey) func(k *kernel.Kernel) error {
	var idle chan *netsim.PacketConn
	if reuse {
		idle = make(chan *netsim.PacketConn, conns)
	}
	return func(k *kernel.Kernel) error {
		var pc *netsim.PacketConn
		if reuse {
			select {
			case pc = <-idle:
			default:
			}
		}
		if pc == nil {
			var err error
			if pc, err = k.Net.DialPacket(); err != nil {
				return err
			}
		}
		a, err := dnsd.Query(pc, "dns:53", "www.example")
		if err == nil && a.Status != dnsd.StatusNoError {
			err = fmt.Errorf("dnsd status %d, want NOERROR", a.Status)
		}
		if err == nil {
			err = a.Verify(pub)
		}
		if err != nil || !reuse {
			pc.Close()
			return err
		}
		idle <- pc
		return nil
	}
}

// pop3BenchSession drives one full POP3 session as a load-generator
// client.
func pop3BenchSession(k *kernel.Kernel) error {
	conn, err := k.Net.Dial("pop3:110")
	if err != nil {
		return err
	}
	return pop3SessionConn(conn)
}

// pop3SessionConn drives the same full session over an established
// connection (the cluster cells dial a front network rather than a
// kernel's own), closing it.
func pop3SessionConn(conn *netsim.Conn) error {
	defer conn.Close()
	r := newLineReader(conn)
	expect := func(prefix string) error {
		line, err := r.line()
		if err != nil {
			return err
		}
		if len(line) < len(prefix) || line[:len(prefix)] != prefix {
			return fmt.Errorf("pop3 bench: got %q, want %s...", line, prefix)
		}
		return nil
	}
	send := func(cmd string) error {
		_, err := conn.Write([]byte(cmd + "\r\n"))
		return err
	}
	if err := expect("+OK"); err != nil {
		return err
	}
	if err := send("USER alice"); err != nil {
		return err
	}
	if err := expect("+OK"); err != nil {
		return err
	}
	if err := send("PASS sesame"); err != nil {
		return err
	}
	if err := expect("+OK"); err != nil {
		return err
	}
	if err := send("RETR 1"); err != nil {
		return err
	}
	if err := expect("+OK"); err != nil {
		return err
	}
	// Read the message body through the terminating ".".
	for {
		line, err := r.line()
		if err != nil {
			return err
		}
		if line == "." {
			break
		}
	}
	if err := send("QUIT"); err != nil {
		return err
	}
	return expect("+OK")
}

// lineReader is a minimal CRLF line reader over a netsim connection.
// Unconsumed bytes live in buf[off:]; reads land in the buffer's spare
// capacity, so a steady request/response exchange costs one buffer for
// the life of the connection instead of an allocation per read.
type lineReader struct {
	conn *netsim.Conn
	buf  []byte
	off  int
}

func newLineReader(conn *netsim.Conn) *lineReader {
	return &lineReader{conn: conn, buf: make([]byte, 0, 512)}
}

func (l *lineReader) line() (string, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.off:], '\n'); i >= 0 {
			line := l.buf[l.off : l.off+i]
			l.off += i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return string(line), nil
		}
		if l.off > 0 {
			l.buf = l.buf[:copy(l.buf, l.buf[l.off:])]
			l.off = 0
		}
		if len(l.buf) == cap(l.buf) {
			grown := make([]byte, len(l.buf), 2*cap(l.buf))
			copy(grown, l.buf)
			l.buf = grown
		}
		n, err := l.conn.Read(l.buf[len(l.buf):cap(l.buf)])
		if err != nil {
			return "", err
		}
		l.buf = l.buf[:len(l.buf)+n]
	}
}
