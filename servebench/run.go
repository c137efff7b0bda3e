package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"wedge/internal/minissl"
	"wedge/internal/serve"
)

// env is one deployment under test, built fresh for each phase.
type env interface {
	counters() counters
	// settle waits for the system to go quiet after the clients closed
	// and checks its ledgers.
	settle() error
	close() error
}

// client is one closed-loop client: exchange is the timed op, verify
// checks its output outside the timed span.
type client interface {
	exchange() error
	verify() error
	close() error
}

// workload is one traffic mix. Each is driven by a single closed-loop
// client: on a two-CPU host, two clients made runs settle into different
// scheduling modes, and their spread between runs tripled.
type workload struct {
	name   string
	key    bool // needs the zone-signing key
	build  func(*inputs, *tracer) (env, error)
	client func(env) (client, error)
}

var workloads = []workload{
	{name: "pop3-churn", build: newPop3Env,
		client: func(e env) (client, error) { return e.(*pop3Env).newChurn(), nil }},
	{name: "pop3-resident", build: newPop3Env,
		client: func(e env) (client, error) { return e.(*pop3Env).newResident() }},
	{name: "dns-signed", key: true, build: newDNSEnv,
		client: func(e env) (client, error) { return e.(*dnsEnv).newClient() }},
	{name: "cluster-pop3", build: newClusterEnv,
		client: func(e env) (client, error) { return e.(*pop3Env).newChurn(), nil }},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_share", "share"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.admitted_per_op", "1/op"},
		{"gatepool.scrubs_per_op", "1/op"},
		{"gatepool.scrub_skip_share", "share"},
		{"gatepool.entries_per_batch", "1/batch"},
		{"gatepool.steals_per_op", "1/op"},
		{"go.allocs_per_op", "1/op"},
		{"go.alloc_bytes_per_op", "B/op"},
		{"go.gc_per_kop", "1/kop"},
		{"cluster.snapshots_per_session", "1/session"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{n, "us"})
	}
	return append(defs, metricDef{"trace.overhead_share", "share"})
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many cold set-ups setup_s is the median of, after
// setupWarm untimed ones that take the process's one-time costs (code
// and heap first touched, lazy runtime init).
const (
	setupReps   = 31
	setupWarm   = 3
	setupSettle = 10 * time.Millisecond
)

func run(name string, seed uint64, dur time.Duration, trace bool) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workloads[i]
	in := newInputs(seed)
	if w.key {
		// Prime search takes a random time, so the key is made once,
		// before any clock starts.
		key, err := minissl.GenerateServerKey()
		if err != nil {
			return nil, err
		}
		in.key = key
	}
	res := &result{Metrics: map[string]metric{}}
	set := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	if !trace {
		setup, err := setupTime(w, in)
		if err != nil {
			return nil, err
		}
		ph, err := runPhase(w, in, nil, dur)
		if err != nil {
			return nil, err
		}
		res.add(ph)
		set(endToEnd, map[string]float64{
			"ops_per_s":     ph.rate,
			"op_p50_us":     ph.p50,
			"op_p99_us":     ph.p99,
			"cpu_us_per_op": ph.cpuPerOp,
			"max_rss_mb":    maxRSSMB(),
			"setup_s":       setup,
			"ok_share":      float64(ph.ok) / float64(ph.ok+ph.failed),
		})
		return res, nil
	}

	plain, err := runPhase(w, in, nil, dur/2)
	if err != nil {
		return nil, err
	}
	res.add(plain)
	traced, err := runPhase(w, in, &tracer{}, dur/2)
	if err != nil {
		return nil, err
	}
	res.add(traced)
	ops := float64(traced.ok)
	c := traced.count
	vals := map[string]float64{
		"serve.admitted_per_op":         float64(c.admitted) / ops,
		"gatepool.scrubs_per_op":        float64(c.scrubs) / ops,
		"gatepool.scrub_skip_share":     ratio(c.skipped, c.scrubs+c.skipped),
		"gatepool.entries_per_batch":    ratio(c.entries, c.batches),
		"gatepool.steals_per_op":        float64(c.steals) / ops,
		"go.allocs_per_op":              float64(traced.mallocs) / ops,
		"go.alloc_bytes_per_op":         float64(traced.allocBytes) / ops,
		"go.gc_per_kop":                 1000 * float64(traced.gcs) / ops,
		"cluster.snapshots_per_session": float64(c.snapshots) / ops,
		"trace.overhead_share":          1 - traced.rate/plain.rate,
	}
	for id, n := range spanNames {
		vals[n] = traced.spans[id].quantile(0.5) / 1e3
	}
	set(perLayer, vals)
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// add folds a phase's op counts and correctness into the result.
func (r *result) add(ph *phase) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	r.Attempted += ph.ok + ph.failed
	r.Failed += ph.failed
	if ph.failed != 0 || ph.wrong != nil {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "servebench: %d failed ops, first: %v; ledger: %v\n", ph.failed, ph.firstErr, ph.wrong)
	}
}

// setupTime is the median wall time of setupReps cold set-ups: a fresh
// kernel, boot, pre-main image and server (or director and members),
// each torn down again, with the heap collected before each.
func setupTime(w *workload, in *inputs) (float64, error) {
	var times []float64
	for i := 0; i < setupWarm+setupReps; i++ {
		runtime.GC()
		start := time.Now()
		e, err := w.build(in, nil)
		if i >= setupWarm {
			times = append(times, time.Since(start).Seconds())
		}
		if err != nil {
			return 0, err
		}
		// sthread.Recycled.Close can lose its wakeup when it lands between
		// a classic gate's stop check and its futex sleep, and then waits
		// forever; a gate closed straight after its creation is the likely
		// victim. Letting the new gates park first keeps teardown clear of
		// that window.
		time.Sleep(setupSettle)
		if err := e.close(); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// counters are the program's own cumulative counters, summed over every
// runtime of an env.
type counters struct {
	admitted, scrubs, skipped, batches, entries, steals, snapshots uint64
}

func (c *counters) addSnapshot(s serve.Snapshot) {
	c.admitted += s.Admitted
	c.scrubs += s.Pool.Scrubs
	c.skipped += s.Pool.ScrubsSkipped
	c.batches += s.Pool.Batches
	c.entries += s.Pool.BatchEntries
	c.steals += s.Pool.Steals
}

func (c counters) minus(o counters) counters {
	return counters{
		admitted:  c.admitted - o.admitted,
		scrubs:    c.scrubs - o.scrubs,
		skipped:   c.skipped - o.skipped,
		batches:   c.batches - o.batches,
		entries:   c.entries - o.entries,
		steals:    c.steals - o.steals,
		snapshots: c.snapshots - o.snapshots,
	}
}

// phase is one measured interval on one freshly built env.
type phase struct {
	ok, failed uint64
	firstErr   error // first failed op
	wrong      error // ledger check after the run

	// Medians over the interval's slices; latencies in microseconds.
	rate, cpuPerOp, p50, p99 float64

	// Deltas over the measured interval.
	count                    counters
	mallocs, allocBytes, gcs uint64
	spans                    *[nSpans]hist
}

func runPhase(w *workload, in *inputs, t *tracer, dur time.Duration) (*phase, error) {
	runtime.GC()
	e, err := w.build(in, t)
	if err != nil {
		return nil, err
	}
	ph, err := measure(w, e, t, dur)
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return ph, err
}

// clientStats is the client's record: a latency histogram per slice of
// the measured interval, its completed ops and its failures.
type clientStats struct {
	slices   []hist // set before the interval starts
	ok       atomic.Uint64
	failed   uint64
	firstErr error
}

// Slices are at least minSlice long and long enough to hold about
// sliceOps ops at the rate seen while warming up, so every slice's p99
// has ten samples beyond it; a stall on the shared host then spoils few
// slices, and the per-slice medians pass over them.
const (
	minSlice = 250 * time.Millisecond
	sliceOps = 1000
)

// measure warms the env up with its client, then measures dur split into
// slices, then closes the client and settles the env.
func measure(w *workload, e env, t *tracer, dur time.Duration) (*phase, error) {
	warm := min(time.Second, dur/4)
	c, err := w.client(e)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var cur atomic.Int64 // slice being measured: -1 while warming up
	cur.Store(-1)
	st := &clientStats{}
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		drive(c, st, &cur)
	}()

	time.Sleep(warm)
	sliceDur := max(minSlice, time.Duration(float64(warm)*sliceOps/float64(max(st.ok.Load(), 1))))
	n := int(max(dur/sliceDur, 4))
	sliceDur = dur / time.Duration(n)
	st.slices = make([]hist, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := e.counters()
	if t != nil {
		t.reset()
	}
	cpu := make([]time.Duration, n+1)
	wall := make([]time.Time, n+1)
	cpu[0], wall[0] = cpuTime(), time.Now()
	cur.Store(0)
	for s := 1; s <= n; s++ {
		time.Sleep(time.Until(wall[0].Add(time.Duration(s) * sliceDur)))
		cpu[s], wall[s] = cpuTime(), time.Now()
		cur.Store(int64(s))
	}
	ph := &phase{count: e.counters().minus(c0)}
	runtime.ReadMemStats(&m1)
	ph.mallocs, ph.allocBytes, ph.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, uint64(m1.NumGC-m0.NumGC)
	if t != nil {
		ph.spans = t.snapshot()
	}
	<-driven
	if err := c.close(); err != nil {
		ph.wrong = fmt.Errorf("client close: %w", err)
	}
	if err := e.settle(); err != nil && ph.wrong == nil {
		ph.wrong = err
	}

	ph.failed, ph.firstErr = st.failed, st.firstErr
	rates, cpus, p50s, p99s := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for s := range n {
		h := &st.slices[s]
		ops := float64(h.count())
		ph.ok += h.count()
		rates[s] = ops / wall[s+1].Sub(wall[s]).Seconds()
		cpus[s] = float64((cpu[s+1] - cpu[s]).Microseconds()) / ops
		p50s[s], p99s[s] = h.quantile(0.50)/1e3, h.quantile(0.99)/1e3
	}
	if ph.ok == 0 {
		return nil, fmt.Errorf("no op completed; first failure: %v", ph.firstErr)
	}
	ph.rate, ph.cpuPerOp, ph.p50, ph.p99 = median(rates), median(cpus), median(p50s), median(p99s)
	return ph, nil
}

// drive is the client's closed loop: the next op starts when the last
// one ends, until the measured interval is over. Failures count whenever
// they happen; latencies only inside the interval.
func drive(c client, st *clientStats, cur *atomic.Int64) {
	for {
		s := cur.Load()
		if s >= 0 && s >= int64(len(st.slices)) {
			return
		}
		start := now()
		err := c.exchange()
		lat := now() - start
		if err == nil {
			err = c.verify()
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.ok.Add(1)
		if s := cur.Load(); s >= 0 && s < int64(len(st.slices)) {
			st.slices[s].add(lat)
		}
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
