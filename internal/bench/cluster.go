// The cluster cells: the multi-runtime director measured. Steady-state
// pop3 (stream) and dnsd (datagram) throughput through an N-member
// cluster — what the director's legs and two-choice routing cost next
// to the single-runtime FigPool cells — plus the rolling-drain cell:
// continuous mixed load while every member in turn is removed, drained,
// and re-admitted. In that cell a stream error is a client-visible
// failure and aborts the run (the whole point of live handoff is that
// clients never see the drain), long-lived authenticated "anchor"
// sessions span every drain so the handoff path provably runs, and the
// run ends with per-runtime ledger checks. ClusterSoak adds the leak
// accounting of the principal-churn soak on top: fresh principals
// throughout, task/tag/conn-table baselines on every member kernel
// afterwards.

package bench

import (
	"crypto/rsa"
	"fmt"
	"sync/atomic"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
)

// ClusterOpts configures the cluster cells. The zero value is the
// default run: 3 members, 16 drivers, 3000 sessions per cell.
type ClusterOpts struct {
	// Runtimes is the member count (default 3, minimum 2 — with one
	// member there is nowhere to hand a session).
	Runtimes int
	// Conc is the number of concurrent driver clients (default 16).
	Conc int
	// Sessions is the number of timed sessions per cell (default 3000).
	Sessions int
}

// ClusterRow is one cluster cell's outcome.
type ClusterRow struct {
	Cell     string // "pop3", "dnsd", "rolling-drain"
	Runtimes int
	Conc     int
	Stats    CellStats
	Handoffs uint64 // live sessions and flows moved (rolling-drain cell only)
	Flows    uint64 // the datagram flows among Handoffs (rolling-drain cell only)
	Removes  int    // rolling drains performed (rolling-drain cell only)
}

func (o *ClusterOpts) defaults() {
	if o.Runtimes <= 0 {
		o.Runtimes = 3
	}
	if o.Runtimes < 2 {
		o.Runtimes = 2
	}
	if o.Conc <= 0 {
		o.Conc = 16
	}
	if o.Sessions <= 0 {
		o.Sessions = 3000
	}
}

// clusterMember is one cluster member: a pop3 runtime and a dnsd
// runtime, each in its own kernel.
type clusterMember struct {
	name string
	pop  *pop3.PooledServer
	dns  *dnsd.Resolver

	popK, dnsK     *kernel.Kernel
	popApp, dnsApp *sthread.App
	quit           chan struct{}
	done           []chan error
}

func startClusterMember(name string, popSlots int, key *rsa.PrivateKey) *clusterMember {
	m := &clusterMember{name: name, quit: make(chan struct{})}
	boxes := []pop3.Mailbox{
		{User: "alice", Password: "sesame", UID: 1000,
			Messages: []string{"From: bench\n\nmessage one"}},
	}
	zone := []dnsd.Record{{Name: "www.example", Value: "192.0.2.80"}}

	popReady := make(chan *pop3.PooledServer, 1)
	popDone := make(chan error, 1)
	m.popK = kernel.New()
	m.popApp = sthread.Boot(m.popK)
	benchPremain(m.popApp)
	go func() {
		popDone <- m.popApp.Main(func(root *sthread.Sthread) {
			srv, err := pop3.NewPooled(root, boxes, popSlots, pop3.Hooks{})
			if err != nil {
				panic(err)
			}
			popReady <- srv
			<-m.quit
			srv.Close()
		})
	}()

	dnsReady := make(chan *dnsd.Resolver, 1)
	dnsDone := make(chan error, 1)
	m.dnsK = kernel.New()
	m.dnsApp = sthread.Boot(m.dnsK)
	benchPremain(m.dnsApp)
	go func() {
		dnsDone <- m.dnsApp.Main(func(root *sthread.Sthread) {
			rt, err := dnsd.NewPooled(root, key, zone, dnsd.Config{
				Slots:       soakFlowSlots,
				IdleTimeout: soakFlowIdle,
			})
			if err != nil {
				panic(err)
			}
			dnsReady <- rt
			<-m.quit
			rt.Close()
		})
	}()

	m.pop = <-popReady
	m.dns = <-dnsReady
	m.done = []chan error{popDone, dnsDone}
	return m
}

// clusterRig is a booted cluster: N members behind a director serving a
// front network's pop3 listener and dns packet socket.
type clusterRig struct {
	members []*clusterMember
	d       *cluster.Director
	front   *netsim.Network
	fl      *netsim.Listener
	fpc     *netsim.PacketConn
	pub     *rsa.PublicKey

	sdone, pdone chan struct{}
}

func memberSpec(m *clusterMember) cluster.Member {
	return cluster.Member{Name: m.name, Stream: m.pop, Packet: m.dns}
}

func startClusterRig(n, popSlots int) (*clusterRig, error) {
	key, err := minissl.GenerateServerKey()
	if err != nil {
		return nil, err
	}
	r := &clusterRig{d: cluster.New(), front: netsim.New(), pub: &key.PublicKey}
	for i := 0; i < n; i++ {
		m := startClusterMember(fmt.Sprintf("m%d", i), popSlots, key)
		r.members = append(r.members, m)
		if err := r.d.Add(memberSpec(m)); err != nil {
			return nil, err
		}
	}
	if r.fl, err = r.front.Listen("pop3:110"); err != nil {
		return nil, err
	}
	if r.fpc, err = r.front.ListenPacket("dns:53"); err != nil {
		return nil, err
	}
	r.sdone = make(chan struct{})
	go func() { r.d.Serve(r.fl); close(r.sdone) }()
	r.pdone = make(chan struct{})
	go func() { r.d.ServePackets(r.fpc); close(r.pdone) }()
	return r, nil
}

func (r *clusterRig) stop() error {
	r.fl.Close()
	r.fpc.Close()
	<-r.sdone
	<-r.pdone
	var first error
	for _, m := range r.members {
		close(m.quit)
		for _, ch := range m.done {
			if err := <-ch; err != nil && first == nil {
				first = fmt.Errorf("member %s: %w", m.name, err)
			}
		}
	}
	return first
}

// settle waits for every member runtime — stream and packet — to go
// fully quiet and checks each one's admission ledger.
func (r *clusterRig) settle(when string) error {
	for _, m := range r.members {
		for i, snap := range []func() serve.Snapshot{m.pop.Snapshot, m.dns.Snapshot} {
			which := [...]string{"pop3", "dnsd"}[i]
			s, err := soakSettle(snap, fmt.Sprintf("%s %s %s", when, m.name, which))
			if err != nil {
				return err
			}
			if s.Admitted != s.Served+s.Failed+s.Handed {
				return fmt.Errorf("%s %s %s ledger: admitted=%d != served=%d + failed=%d + handed=%d",
					when, m.name, which, s.Admitted, s.Served, s.Failed, s.Handed)
			}
		}
	}
	return nil
}

// flowsHanded is how many datagram flows the members have exported.
func (r *clusterRig) flowsHanded() uint64 {
	var n uint64
	for _, m := range r.members {
		n += m.dns.Snapshot().Handed
	}
	return n
}

func (r *clusterRig) pop3Session() error {
	conn, err := r.front.Dial("pop3:110")
	if err != nil {
		return err
	}
	return pop3SessionConn(conn)
}

func (r *clusterRig) dnsQuery() error {
	pc, err := r.front.DialPacket()
	if err != nil {
		return err
	}
	defer pc.Close()
	// Datagram transports promise nothing; the client imposes its own
	// timeout (closing the socket unblocks the read) and the caller
	// retries on a fresh socket.
	timeout := time.AfterFunc(time.Second, func() { pc.Close() })
	defer timeout.Stop()
	a, err := dnsd.Query(pc, "dns:53", "www.example")
	if err != nil {
		return err
	}
	if a.Status != dnsd.StatusNoError {
		return fmt.Errorf("dnsd status %d, want NOERROR", a.Status)
	}
	return a.Verify(r.pub)
}

// anchor is a long-lived authenticated pop3 session: USER/PASS once,
// then STAT round trips until told to stop, then a clean QUIT. Anchors
// span every rolling drain, so each one is necessarily handed off at
// least once when its current home is removed — the live-handoff path
// provably runs, with real mid-protocol state (the authenticated uid)
// crossing runtimes.
func (r *clusterRig) anchor(stop <-chan struct{}) error {
	conn, err := r.front.Dial("pop3:110")
	if err != nil {
		return err
	}
	defer conn.Close()
	lr := newLineReader(conn)
	round := func(cmd string) error {
		if cmd != "" {
			if _, err := conn.Write([]byte(cmd + "\r\n")); err != nil {
				return err
			}
		}
		line, err := lr.line()
		if err != nil {
			return err
		}
		if len(line) < 3 || line[:3] != "+OK" {
			return fmt.Errorf("anchor: %s: got %q, want +OK", cmd, line)
		}
		return nil
	}
	for _, cmd := range []string{"", "USER alice", "PASS sesame"} {
		if err := round(cmd); err != nil {
			return err
		}
	}
	for {
		select {
		case <-stop:
			return round("QUIT")
		default:
		}
		if err := round("STAT"); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond) // pace: anchors span the run, they don't dominate it
	}
}

// churn drives total mixed sessions (one dns query in every four, the
// rest pop3) at conc drivers with `anchors` long-lived sessions
// alongside, and performs `removes` rolling drains at evenly spaced
// load-progress points — each removes the next member in turn, verifies
// it drained empty, and re-admits it. Stream sessions get zero retries:
// any stream error is a client-visible failure. Datagram queries retry
// on a fresh socket, as any UDP client must.
func (r *clusterRig) churn(total, conc, removes, anchors int) (CellStats, error) {
	var progress atomic.Int64
	run := func(seq int) (bool, error) {
		defer progress.Add(1)
		if seq%4 == 0 {
			var err error
			for try := 0; try < 8; try++ {
				if err = r.dnsQuery(); err == nil {
					return true, nil
				}
			}
			return true, err
		}
		return true, r.pop3Session()
	}

	stopAnchors := make(chan struct{})
	anchorErr := make(chan error, anchors)
	for i := 0; i < anchors; i++ {
		go func() { anchorErr <- r.anchor(stopAnchors) }()
	}

	stopDrains := make(chan struct{})
	drainErr := make(chan error, 1)
	go func() {
		for j := 1; j <= removes; j++ {
			target := int64(total) * int64(j) / int64(removes+1)
			for progress.Load() < target {
				select {
				case <-stopDrains:
					drainErr <- nil
					return
				default:
				}
				time.Sleep(time.Millisecond)
			}
			m := r.members[(j-1)%len(r.members)]
			if err := r.d.Remove(m.name); err != nil {
				drainErr <- fmt.Errorf("remove %s: %w", m.name, err)
				return
			}
			if s := m.pop.Snapshot(); s.Inflight != 0 || s.Conns.Entries != 0 {
				drainErr <- fmt.Errorf("%s pop3 not drained: inflight=%d conn-entries=%d",
					m.name, s.Inflight, s.Conns.Entries)
				return
			}
			if s := m.dns.Snapshot(); s.Flows != 0 || s.Conns.Entries != 0 {
				drainErr <- fmt.Errorf("%s dnsd not drained: flows=%d conn-entries=%d",
					m.name, s.Flows, s.Conns.Entries)
				return
			}
			if err := r.d.Add(memberSpec(m)); err != nil {
				drainErr <- fmt.Errorf("re-add %s: %w", m.name, err)
				return
			}
		}
		drainErr <- nil
	}()

	stats, err := churnDrive(total, conc, 0, run)
	// Drains first, anchors second: a fast load can blow past the last
	// progress targets before the drain goroutine wakes, so late removes
	// run after churnDrive returns — the anchors must still be alive then
	// or those drains move nothing and the cell proves nothing. Closing
	// stopDrains is safe here: the drain goroutine only takes that exit
	// while progress is genuinely short of its target, i.e. the load
	// itself failed.
	close(stopDrains)
	if derr := <-drainErr; derr != nil && err == nil {
		err = derr
	}
	close(stopAnchors)
	for i := 0; i < anchors; i++ {
		if aerr := <-anchorErr; aerr != nil && err == nil {
			err = fmt.Errorf("anchor: %w", aerr)
		}
	}
	return stats, err
}

// clusterAnchors is the rolling-drain cells' long-lived session count.
const clusterAnchors = 4

// Cluster runs the cluster cells and returns their rows plus the JSON
// result rows (experiment "cluster"). The steady-state pop3 and dnsd
// cells are regression-gated like any FigPool cell; the rolling-drain
// cell's rows carry a Note — they are trajectory records (their number
// moves with drain timing, not with code quality), but the cell itself
// hard-fails on any client-visible error, a runtime that did not drain
// empty, an unbalanced ledger, or a run with no handoffs.
func Cluster(opts ClusterOpts) ([]ClusterRow, []Result, error) {
	opts.defaults()
	rig, err := startClusterRig(opts.Runtimes, opts.Conc)
	if err != nil {
		return nil, nil, err
	}

	fail := func(err error) ([]ClusterRow, []Result, error) {
		rig.stop()
		return nil, nil, err
	}

	// Warmup both protocol paths.
	if _, err := churnDrive(2*opts.Conc, opts.Conc, 8, func(seq int) (bool, error) {
		if seq%2 == 0 {
			return true, rig.dnsQuery()
		}
		return true, rig.pop3Session()
	}); err != nil {
		return fail(fmt.Errorf("warmup: %w", err))
	}

	var rows []ClusterRow
	popStats, err := soakDrive(opts.Sessions, opts.Conc, func(int) (bool, error) {
		return true, rig.pop3Session()
	})
	if err != nil {
		return fail(fmt.Errorf("pop3 cell: %w", err))
	}
	rows = append(rows, ClusterRow{Cell: "pop3", Runtimes: opts.Runtimes, Conc: opts.Conc, Stats: popStats})

	dnsStats, err := soakDrive(opts.Sessions, opts.Conc, func(int) (bool, error) {
		return true, rig.dnsQuery()
	})
	if err != nil {
		return fail(fmt.Errorf("dnsd cell: %w", err))
	}
	rows = append(rows, ClusterRow{Cell: "dnsd", Runtimes: opts.Runtimes, Conc: opts.Conc, Stats: dnsStats})

	handoffs0, flows0 := rig.d.Stats().Handoffs, rig.flowsHanded()
	removes := opts.Runtimes
	drainStats, err := rig.churn(opts.Sessions, opts.Conc, removes, clusterAnchors)
	if err != nil {
		return fail(fmt.Errorf("rolling-drain cell: %w", err))
	}
	st := rig.d.Stats()
	if st.HandoffFailed != 0 {
		return fail(fmt.Errorf("rolling-drain cell: %d handoffs failed", st.HandoffFailed))
	}
	handoffs := st.Handoffs - handoffs0
	if handoffs == 0 {
		return fail(fmt.Errorf("rolling-drain cell: %d removes, zero handoffs — the drains moved nothing", removes))
	}
	rows = append(rows, ClusterRow{Cell: "rolling-drain", Runtimes: opts.Runtimes, Conc: opts.Conc,
		Stats: drainStats, Handoffs: handoffs, Flows: rig.flowsHanded() - flows0, Removes: removes})

	if err := rig.settle("after the cluster cells"); err != nil {
		return fail(err)
	}
	if err := rig.stop(); err != nil {
		return nil, nil, err
	}

	var results []Result
	cell := func(row ClusterRow, note string) {
		id := fmt.Sprintf("%s cluster n=%d c=%d", row.Cell, row.Runtimes, row.Conc)
		variant := fmt.Sprintf("cluster-%d", row.Runtimes)
		results = append(results,
			Result{Experiment: "cluster", Name: id, Value: row.Stats.RPS, Unit: "req/s",
				App: row.Cell, Variant: variant, Conns: row.Conc, Metric: "rps", Note: note},
			Result{Experiment: "cluster", Name: id + " p50", Value: ms(row.Stats.P50), Unit: "ms",
				App: row.Cell, Variant: variant, Conns: row.Conc, Metric: "p50", Note: note},
			Result{Experiment: "cluster", Name: id + " p99", Value: ms(row.Stats.P99), Unit: "ms",
				App: row.Cell, Variant: variant, Conns: row.Conc, Metric: "p99", Note: note},
		)
	}
	cell(rows[0], "")
	cell(rows[1], "")
	note := fmt.Sprintf("trajectory: mixed pop3+dnsd load while each of %d members is drained and re-admitted in turn; %d live handoffs (%d datagram flows), zero client-visible errors", opts.Runtimes, handoffs, rows[2].Flows)
	cell(rows[2], note)
	results = append(results, Result{
		Experiment: "cluster",
		Name:       fmt.Sprintf("rolling-drain cluster n=%d handoffs", opts.Runtimes),
		Value:      float64(handoffs), Unit: "handoffs",
		App: "rolling-drain", Variant: fmt.Sprintf("cluster-%d", opts.Runtimes), Note: note,
	})
	return rows, results, nil
}

// ClusterSoak is the cluster variant of the principal-churn soak: fresh
// principals throughout a mixed pop3+dnsd churn through a multi-member
// cluster, with a rolling drain of every member mid-churn and the
// soak's leak accounting afterwards — task and tag baselines on every
// member kernel, conn tables and flows drained to zero, ledgers
// balanced, and at least one live handoff per anchor session.
func ClusterSoak(opts SoakOpts, runtimes int) ([]SoakRow, []Result, error) {
	opts.defaults()
	if runtimes < 2 {
		runtimes = 2
	}
	rig, err := startClusterRig(runtimes, opts.Conc)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) ([]SoakRow, []Result, error) {
		rig.stop()
		return nil, nil, err
	}

	// Warmup primes every path the measured churn will hit — including
	// one full remove/re-add cycle, so lazily allocated handoff and
	// resume state exists before the baselines are taken.
	if _, err := rig.churn(4*opts.Conc, opts.Conc, 1, 2); err != nil {
		return fail(fmt.Errorf("warmup: %w", err))
	}
	if err := rig.settle("after warmup"); err != nil {
		return fail(err)
	}
	type memBase struct{ pop, dns soakBaseline }
	bases := make([]memBase, len(rig.members))
	for i, m := range rig.members {
		bases[i] = memBase{takeBaseline(m.popK, m.popApp), takeBaseline(m.dnsK, m.dnsApp)}
	}
	handoffs0 := rig.d.Stats().Handoffs

	stats, err := rig.churn(opts.Principals, opts.Conc, runtimes, clusterAnchors)
	if err != nil {
		return fail(err)
	}
	if err := rig.settle("after churn"); err != nil {
		return fail(err)
	}
	for i, m := range rig.members {
		if err := bases[i].pop.check(m.popK, m.popApp, opts.Principals); err != nil {
			return fail(fmt.Errorf("%s pop3: %w", m.name, err))
		}
		if err := bases[i].dns.check(m.dnsK, m.dnsApp, opts.Principals); err != nil {
			return fail(fmt.Errorf("%s dnsd: %w", m.name, err))
		}
	}
	st := rig.d.Stats()
	if st.HandoffFailed != 0 {
		return fail(fmt.Errorf("cluster soak: %d handoffs failed", st.HandoffFailed))
	}
	handoffs := st.Handoffs - handoffs0
	if handoffs < clusterAnchors {
		return fail(fmt.Errorf("cluster soak: %d handoffs across %d removes, want >= %d (every anchor spans every drain)",
			handoffs, runtimes, clusterAnchors))
	}
	if err := rig.stop(); err != nil {
		return nil, nil, err
	}

	row := SoakRow{App: "cluster", Principals: opts.Principals, Conc: opts.Conc,
		Stats: stats, Reaped: handoffs}
	name := fmt.Sprintf("cluster soak c=%d", opts.Conc)
	results := []Result{
		{Experiment: "soak", Name: name, Value: stats.RPS, Unit: "req/s",
			App: "cluster", Variant: "soak", Conns: opts.Conc, Metric: "rps"},
		{Experiment: "soak", Name: name + " p50", Value: ms(stats.P50), Unit: "ms",
			App: "cluster", Variant: "soak", Conns: opts.Conc, Metric: "p50"},
		{Experiment: "soak", Name: name + " p99", Value: ms(stats.P99), Unit: "ms",
			App: "cluster", Variant: "soak", Conns: opts.Conc, Metric: "p99"},
	}
	return []SoakRow{row}, results, nil
}
