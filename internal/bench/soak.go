// The soak harness: hundreds of thousands of simulated principals
// churning connect/auth/disconnect through the pooled apps for a
// bounded run, with leak accounting at the end. Where the FigPool cells
// measure steady-state throughput at fixed concurrency, the soak
// measures what a million-principal deployment actually stresses: the
// conn-table's churn path (every session registers and deregisters a
// demux entry under a fresh principal), the idle reaper (a fraction of
// stream sessions park silent and must be reaped, every datagram flow
// ends by expiry), and the bookkeeping that must come back to exactly
// zero afterwards — task count, live tag set, and conn-table occupancy.
// A soak that "passes" with a leaked task per ten thousand sessions is
// a server that dies in production a week later, so Soak returns an
// error — not a number — when any residue survives the run.

package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// SoakOpts configures a soak run. The zero value is the full default
// soak: both apps, 100k principals each.
type SoakOpts struct {
	// App selects the workload: "pop3" (stream sessions), "dnsd"
	// (datagram flows), or "all"/"" for both.
	App string
	// Principals is the number of simulated principal churns per app
	// (default 100_000). Every session dials fresh, so netsim mints a
	// distinct principal for each.
	Principals int
	// Conc is the number of concurrent driver clients (default 32).
	Conc int
	// Idle is the stream apps' idle-reap window (default 25ms). Silent
	// sessions must be reaped within roughly this bound for the soak to
	// sustain its rate.
	Idle time.Duration
	// SilentEvery parks every Nth pop3 session after authentication —
	// no QUIT, no further bytes — so the run exercises the idle reaper
	// under churn, not just the clean path (default 16; negative
	// disables).
	SilentEvery int
	// Slots is the stream pool size (0 = one slot per driver, so the
	// run measures churn and reaping rather than admission shedding —
	// with fewer slots than drivers, a burst of parked silent sessions
	// can back the queue up past the idle window, and the reaper sheds
	// the queued connections; the FigPool cells cover contention).
	Slots int
}

// soakFlowIdle is the datagram soak's flow-expiry window. A datagram
// flow pins its slot until expiry (there is no FIN), so the sustainable
// churn rate is slots/idle — the window is kept short and the flow pool
// wide (soakFlowSlots) so a 100k-principal run stays bounded while the
// expiry sweep still runs at full tilt.
const soakFlowIdle = 4 * time.Millisecond

// soakFlowSlots is the datagram soak's pool width; see soakFlowIdle.
const soakFlowSlots = 256

// SoakRow is one app's soak outcome.
type SoakRow struct {
	App        string
	Principals int // clean, timed churns
	Conc       int
	Stats      CellStats
	Reaped     uint64 // sessions ended by idle expiry (Snapshot.Expired)
	PeakConns  int    // peak conn-table occupancy observed during the run
	PeakShard  int    // peak single-shard depth observed during the run
	Shards     int    // conn-table shard count
}

func (o *SoakOpts) defaults() {
	if o.App == "" {
		o.App = "all"
	}
	if o.Principals <= 0 {
		o.Principals = 100_000
	}
	if o.Conc <= 0 {
		o.Conc = 32
	}
	if o.Idle <= 0 {
		o.Idle = 25 * time.Millisecond
	}
	if o.SilentEvery == 0 {
		o.SilentEvery = 16
	} else if o.SilentEvery < 0 {
		o.SilentEvery = 0
	}
}

// Soak runs the selected soak workloads and returns their rows plus the
// JSON result rows (experiment "soak": rps/p50/p99 per app, keyed by
// concurrency — not by principal count, so bounded CI runs compare
// against the same baseline rows as full runs). Any leak — a task or
// tag that outlives the churn, a conn-table entry left registered, a
// silent session the reaper missed — is an error.
func Soak(opts SoakOpts) ([]SoakRow, []Result, error) {
	opts.defaults()
	var apps []string
	switch opts.App {
	case "all":
		apps = []string{"pop3", "dnsd"}
	case "pop3", "dnsd":
		apps = []string{opts.App}
	default:
		return nil, nil, fmt.Errorf("bench: unknown soak app %q (want pop3, dnsd or all)", opts.App)
	}
	var rows []SoakRow
	var results []Result
	for _, app := range apps {
		var row SoakRow
		var err error
		switch app {
		case "pop3":
			row, err = soakPop3(opts)
		case "dnsd":
			row, err = soakDnsd(opts)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("soak %s: %w", app, err)
		}
		rows = append(rows, row)
		results = append(results,
			Result{
				Experiment: "soak",
				Name:       fmt.Sprintf("%s soak c=%d", app, opts.Conc),
				Value:      row.Stats.RPS,
				Unit:       "req/s",
				App:        app,
				Variant:    "soak",
				Conns:      opts.Conc,
				Metric:     "rps",
			},
			Result{
				Experiment: "soak",
				Name:       fmt.Sprintf("%s soak c=%d p50", app, opts.Conc),
				Value:      ms(row.Stats.P50),
				Unit:       "ms",
				App:        app,
				Variant:    "soak",
				Conns:      opts.Conc,
				Metric:     "p50",
			},
			Result{
				Experiment: "soak",
				Name:       fmt.Sprintf("%s soak c=%d p99", app, opts.Conc),
				Value:      ms(row.Stats.P99),
				Unit:       "ms",
				App:        app,
				Variant:    "soak",
				Conns:      opts.Conc,
				Metric:     "p99",
			})
	}
	return rows, results, nil
}

// soakBaseline is the residue accounting shared by both soaks: the task
// count and live tag set are recorded at a settled moment before the
// measured churn, and must read exactly the same at the next settled
// moment after it. (The pre-churn warmup has already forced every lazy
// allocation — wheel task, session scratch, autosized buffers — so a
// difference here is a per-session leak, not a first-use artifact.)
type soakBaseline struct {
	tasks int
	tags  int
}

func takeBaseline(k *kernel.Kernel, app *sthread.App) soakBaseline {
	return soakBaseline{tasks: k.TaskCount(), tags: len(app.Tags.Tags())}
}

func (b soakBaseline) check(k *kernel.Kernel, app *sthread.App, churned int) error {
	if got := k.TaskCount(); got != b.tasks {
		return fmt.Errorf("task leak: %d tasks after %d churns, baseline %d", got, churned, b.tasks)
	}
	if got := len(app.Tags.Tags()); got != b.tags {
		return fmt.Errorf("tag leak: %d live tags after %d churns, baseline %d", got, churned, b.tags)
	}
	return nil
}

// soakSettle waits for the runtime to go fully quiet: nothing in
// flight, no busy slot, no live flow, and — the sharded-table soak's
// whole point — a conn table drained back to zero entries.
func soakSettle(snap func() serve.Snapshot, when string) (serve.Snapshot, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := snap()
		if s.Inflight == 0 && s.Pool.Busy == 0 && s.Flows == 0 && s.Conns.Entries == 0 {
			return s, nil
		}
		if time.Now().After(deadline) {
			if os.Getenv("WEDGE_SOAK_DUMP") != "" {
				buf := make([]byte, 1<<22)
				n := runtime.Stack(buf, true)
				os.Stderr.Write(buf[:n])
			}
			return s, fmt.Errorf("%s: not quiescent: inflight=%d busy=%d flows=%d conn-entries=%d",
				when, s.Inflight, s.Pool.Busy, s.Flows, s.Conns.Entries)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// soakSampler polls Snapshot while the churn runs, recording peak
// conn-table occupancy and peak single-shard depth — the counters that
// show whether load actually spread across shards or piled onto one.
type soakSampler struct {
	stop      chan struct{}
	done      chan struct{}
	peakConns int
	peakShard int
	shards    int
}

func startSampler(snap func() serve.Snapshot) *soakSampler {
	sm := &soakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
				s := snap()
				if s.Conns.Entries > sm.peakConns {
					sm.peakConns = s.Conns.Entries
				}
				if s.Conns.MaxShard > sm.peakShard {
					sm.peakShard = s.Conns.MaxShard
				}
				sm.shards = s.Conns.Shards
			}
		}
	}()
	return sm
}

func (sm *soakSampler) finish() { close(sm.stop); <-sm.done }

// soakDrive fans opts.Conc drivers over n sessions of run, timing each
// clean session end-to-end and collecting the latency distribution.
// Failed sessions retry a few times — a load generator's behavior —
// before aborting the run.
func soakDrive(n, conc int, run func(seq int) (timed bool, err error)) (CellStats, error) {
	return churnDrive(n, conc, 8, run)
}

// churnDrive is soakDrive with the retry budget explicit. The cluster
// rolling-drain cells run it with zero retries: there, any stream
// error is a client-visible failure the drain was supposed to prevent,
// and a retry would hide exactly the defect being measured.
func churnDrive(n, conc, retries int, run func(seq int) (timed bool, err error)) (CellStats, error) {
	per := n / conc
	if per == 0 {
		per = 1
	}
	lats := make([][]time.Duration, conc)
	errs := make(chan error, conc)
	var seq atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		lats[c] = make([]time.Duration, 0, per)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := int(seq.Add(1))
				t0 := time.Now()
				timed, err := run(s)
				for retry := 0; err != nil && retry < retries; retry++ {
					timed, err = run(s)
				}
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", s, err)
					return
				}
				if timed {
					lats[c] = append(lats[c], time.Since(t0))
				}
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
		RPS: float64(per*conc) / elapsed.Seconds(),
		P50: percentile(all, 0.50),
		P99: percentile(all, 0.99),
	}, nil
}

// soakPop3 churns stream sessions: every session dials fresh (a new
// netsim principal), authenticates, retrieves one message, and quits —
// except every SilentEvery-th, which parks after authentication and is
// closed by the idle reaper (the client waits for the reap, so a missed
// reap hangs a driver instead of passing silently).
func soakPop3(opts SoakOpts) (SoakRow, error) {
	boxes := []pop3.Mailbox{
		{User: "alice", Password: "sesame", UID: 1000,
			Messages: []string{"From: soak\n\nmessage one"}},
	}
	k := kernel.New()
	app := sthread.Boot(k)
	benchPremain(app)

	type built struct {
		srv *pop3.PooledServer
		l   *netsim.Listener
	}
	ready := make(chan built, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	slots := opts.Slots
	if slots <= 0 {
		slots = opts.Conc // see SoakOpts.Slots
	}
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := pop3.NewPooledConfig(root, boxes, pop3.PoolConfig{
				Slots:       slots,
				IdleTimeout: opts.Idle,
			}, pop3.Hooks{})
			if err != nil {
				panic(err)
			}
			defer srv.Close()
			l, err := root.Task.Listen("pop3:110")
			if err != nil {
				panic(err)
			}
			ready <- built{srv, l}
			srv.Serve(l)
			<-quit
		})
	}()
	b := <-ready

	session := func(seq int) (bool, error) {
		silent := opts.SilentEvery > 0 && seq%opts.SilentEvery == 0
		if !silent {
			return true, pop3BenchSession(k)
		}
		return false, soakSilentPop3(k, opts.Idle)
	}

	// Warmup: one round per driver (including a silent one when enabled)
	// forces every lazy allocation before the baseline is taken.
	if _, err := soakDrive(opts.Conc, opts.Conc, session); err != nil {
		return SoakRow{}, fmt.Errorf("warmup: %w", err)
	}
	if _, err := soakSettle(b.srv.Snapshot, "after warmup"); err != nil {
		return SoakRow{}, err
	}
	base := takeBaseline(k, app)
	reaped0 := b.srv.Snapshot().Expired

	sm := startSampler(b.srv.Snapshot)
	stats, derr := soakDrive(opts.Principals, opts.Conc, session)
	sm.finish()
	if derr != nil {
		return SoakRow{}, derr
	}
	snap, err := soakSettle(b.srv.Snapshot, "after churn")
	if err != nil {
		return SoakRow{}, err
	}
	if err := base.check(k, app, opts.Principals); err != nil {
		return SoakRow{}, err
	}
	reaped := snap.Expired - reaped0
	if opts.SilentEvery > 0 && reaped == 0 {
		return SoakRow{}, fmt.Errorf("no sessions idle-reaped with SilentEvery=%d", opts.SilentEvery)
	}

	b.l.Close()
	close(quit)
	if err := <-done; err != nil {
		return SoakRow{}, err
	}
	return SoakRow{
		App: "pop3", Principals: opts.Principals, Conc: opts.Conc,
		Stats: stats, Reaped: reaped,
		PeakConns: sm.peakConns, PeakShard: sm.peakShard, Shards: sm.shards,
	}, nil
}

// soakSilentPop3 authenticates and then goes quiet; the reaper must
// close the connection. The read-until-error is the assertion: a
// connection the reaper misses blocks here until the settle deadline
// fails the run.
func soakSilentPop3(k *kernel.Kernel, idle time.Duration) error {
	conn, err := k.Net.Dial("pop3:110")
	if err != nil {
		return err
	}
	defer conn.Close()
	r := newLineReader(conn)
	for _, cmd := range []string{"", "USER alice", "PASS sesame"} {
		if cmd != "" {
			if _, err := conn.Write([]byte(cmd + "\r\n")); err != nil {
				return err
			}
		}
		line, err := r.line()
		if err != nil {
			return err
		}
		if len(line) < 3 || line[:3] != "+OK" {
			return fmt.Errorf("silent session: got %q, want +OK", line)
		}
	}
	// Authenticated; now park. The next read returns only when the
	// reaper closes the server side.
	for {
		if _, err := r.line(); err != nil {
			return nil
		}
	}
}

// soakDnsd churns datagram flows: every query dials a fresh packet
// socket (a new udp-N principal), so every query admits a new flow that
// gives its slot back only through idle expiry — admission, demux
// registration, wheel-driven expiry, and scrub all on the path, at
// soak scale.
func soakDnsd(opts SoakOpts) (SoakRow, error) {
	key, err := minissl.GenerateServerKey()
	if err != nil {
		return SoakRow{}, err
	}
	zone := []dnsd.Record{{Name: "www.example", Value: "192.0.2.80"}}
	k := kernel.New()
	app := sthread.Boot(k)
	benchPremain(app)

	type built struct {
		srv *dnsd.Resolver
		pc  *netsim.PacketConn
	}
	ready := make(chan built, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := dnsd.NewPooled(root, key, zone, dnsd.Config{
				Slots:       soakFlowSlots,
				IdleTimeout: soakFlowIdle,
			})
			if err != nil {
				panic(err)
			}
			defer srv.Close()
			pc, err := root.Task.ListenPacket("dns:53")
			if err != nil {
				panic(err)
			}
			ready <- built{srv, pc}
			srv.ServePackets(pc)
			<-quit
		})
	}()
	b := <-ready

	pub := &key.PublicKey
	query := func(int) (bool, error) {
		pc, err := k.Net.DialPacket()
		if err != nil {
			return true, err
		}
		defer pc.Close()
		// Datagram transports promise nothing: a request or answer can
		// be shed (admission overload, full socket queue) and ReadFrom
		// would then block forever. The client imposes its own timeout —
		// closing the socket unblocks the read with an error, and the
		// driver's retry dials a fresh socket.
		timeout := time.AfterFunc(time.Second, func() { pc.Close() })
		defer timeout.Stop()
		a, err := dnsd.Query(pc, "dns:53", "www.example")
		if err != nil {
			return true, err
		}
		if a.Status != dnsd.StatusNoError {
			return true, fmt.Errorf("dnsd status %d, want NOERROR", a.Status)
		}
		return true, a.Verify(pub)
	}

	if _, err := soakDrive(opts.Conc, opts.Conc, query); err != nil {
		return SoakRow{}, fmt.Errorf("warmup: %w", err)
	}
	if _, err := soakSettle(b.srv.Snapshot, "after warmup"); err != nil {
		return SoakRow{}, err
	}
	base := takeBaseline(k, app)
	expired0 := b.srv.Snapshot().Expired

	sm := startSampler(b.srv.Snapshot)
	stats, derr := soakDrive(opts.Principals, opts.Conc, query)
	sm.finish()
	if derr != nil {
		return SoakRow{}, derr
	}
	snap, err := soakSettle(b.srv.Snapshot, "after churn")
	if err != nil {
		return SoakRow{}, err
	}
	if err := base.check(k, app, opts.Principals); err != nil {
		return SoakRow{}, err
	}
	expired := snap.Expired - expired0
	if expired == 0 {
		return SoakRow{}, fmt.Errorf("no flows expired across %d fresh-principal queries", opts.Principals)
	}

	b.pc.Close()
	close(quit)
	if err := <-done; err != nil {
		return SoakRow{}, err
	}
	return SoakRow{
		App: "dnsd", Principals: opts.Principals, Conc: opts.Conc,
		Stats: stats, Reaped: expired,
		PeakConns: sm.peakConns, PeakShard: sm.peakShard, Shards: sm.shards,
	}, nil
}
