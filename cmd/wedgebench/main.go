// Command wedgebench regenerates the paper's evaluation (§6) from the
// command line:
//
//	wedgebench -fig 7          # primitive-creation latencies (Figure 7)
//	wedgebench -fig 8          # memory-call costs (Figure 8)
//	wedgebench -fig 9          # cb-log overhead (Figure 9)
//	wedgebench -table 2        # Apache throughput + OpenSSH latency
//	wedgebench -metrics        # §5 partitioning metrics + object census
//	wedgebench -ablations     # tag-cache and ephemeral-RSA ablations
//	wedgebench -pool           # gatepool scaling: variant throughput as
//	                           # concurrency grows 1..64
//	wedgebench -pool -app sshd # same ladder for the sshd study
//	wedgebench -pool -app pop3 # ... the pop3 study
//	wedgebench -pool -app privsep # ... and the privsep-vs-pooled-monitor
//	                           # contrast (§5.2)
//	wedgebench -pool -app dnsd # ... and the datagram resolver wedge
//	wedgebench -pool -app all  # the five-way pooled comparison
//	                           # (httpd/sshd/pop3/privsep/dnsd) in one
//	                           # command
//	wedgebench -soak           # principal-churn soak: 100k fresh
//	                           # principals per app through the pooled
//	                           # pop3 (stream) and dnsd (datagram)
//	                           # builds, with task/tag/conn-table leak
//	                           # accounting — any residue is a failure
//	wedgebench -all            # everything (the soak stays opt-in)
//
// Every row is printed next to the paper's reported value where one
// exists. -conns and -scp scale the Table 2 work for quick runs;
// -poolconns, -poolsize and -poollevels scale the gatepool experiment
// (-poolsize 0 sizes each pool to the host parallelism; -poollevels is a
// comma-separated concurrency ladder such as "1,8,64"). The serve-runtime
// knobs apply to the pooled variants: -queue bounds the admission queue,
// -autoslots makes slot counts track GOMAXPROCS at admission, and -drain
// runs a verified drain/undrain cycle on every pooled cell.
// -soakapp, -soakprincipals, -soakconc, -soakidle and -soaksilent scale
// the soak (bounded CI smokes pass a small -soakprincipals; the row
// names carry only the concurrency, so small and full runs compare
// against the same baseline).
//
// -json <file> additionally writes every measured result as JSON (with
// app/variant/concurrency identity fields on the pool rows, which carry
// three metrics each: "rps" throughput plus "p50"/"p99" session-latency
// percentiles) for trend tracking; "-json -" writes to stdout after the
// human-readable tables. cmd/benchdiff compares two such files and
// flags regressions beyond a noise threshold.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wedge/internal/bench"
)

// usageError prints a message plus usage and exits with status 2, the
// conventional flag-misuse status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wedgebench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseLevels parses a comma-separated ladder of positive integers.
func parseLevels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad level %q", part)
		}
		if n < 1 {
			return nil, fmt.Errorf("level %d is not positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	fig := flag.Int("fig", 0, "regenerate figure 7, 8 or 9")
	table := flag.Int("table", 0, "regenerate table 2")
	metrics := flag.Bool("metrics", false, "partitioning metrics and object census")
	ablations := flag.Bool("ablations", false, "design-choice ablations (tag cache, ephemeral RSA)")
	pool := flag.Bool("pool", false, "gatepool scaling experiment (FigPool)")
	poolApp := flag.String("app", "httpd", "gatepool experiment application: httpd, sshd, pop3, privsep, dnsd, or all")
	poolSize := flag.Int("poolsize", 0, "gatepool slots (0 = host parallelism)")
	poolConns := flag.Int("poolconns", bench.FigPoolConns, "timed connections per FigPool cell")
	poolLevels := flag.String("poollevels", "", "comma-separated FigPool concurrency ladder (default 1,2,4,...,64)")
	poolVariants := flag.String("variants", "", "comma-separated FigPool variant filter (default: the app's full ladder)")
	clusterFlag := flag.Bool("cluster", false, "cluster cells: pop3+dnsd through a multi-runtime director, plus a rolling-drain cell; with -soak, additionally runs the cluster soak")
	runtimes := flag.Int("runtimes", 3, "cluster member count for -cluster (minimum 2)")
	clusterConns := flag.Int("clusterconns", 0, "timed sessions per cluster cell (0 = 3000)")
	soak := flag.Bool("soak", false, "principal-churn soak: fresh-principal sessions through the pooled apps with leak accounting")
	soakApp := flag.String("soakapp", "all", "soak workload: pop3, dnsd, or all")
	soakPrincipals := flag.Int("soakprincipals", 0, "simulated principal churns per soak app (0 = 100000)")
	soakConc := flag.Int("soakconc", 0, "concurrent soak drivers (0 = 32)")
	soakIdle := flag.Duration("soakidle", 0, "stream idle-reap window for the soak (0 = 25ms)")
	soakSilent := flag.Int("soaksilent", 0, "park every Nth pop3 soak session for the reaper (0 = 16, <0 disables)")
	queue := flag.Int("queue", 0, "pooled admission-queue bound (0 = unbounded, <0 = no waiting; rejected connections become client retries)")
	autoslots := flag.Bool("autoslots", false, "pooled slot counts track GOMAXPROCS at admission (supersedes -poolsize)")
	drain := flag.Bool("drain", false, "run a drain/undrain cycle on every pooled cell and verify quiescence")
	all := flag.Bool("all", false, "run every experiment")
	jsonOut := flag.String("json", "", "write machine-readable results (app, variant, concurrency, ops/s) to this file; \"-\" means stdout")
	iters := flag.Int("iters", 0, "iterations for figures 7/8 (0 = default)")
	conns := flag.Int("conns", bench.Table2Conns, "timed connections per Table 2 Apache cell")
	scp := flag.Int("scp", bench.ScpSize, "scp upload size in bytes for Table 2")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	flag.Parse()

	// Validate before any experiment runs: negative sizes and counts used
	// to flow into the benchmarks and misbehave downstream (a negative
	// -poolconns silently became the default; a negative -iters divided
	// by zero). Zero keeps its documented "use the default" meaning.
	if *poolSize < 0 {
		usageError("-poolsize must be >= 0 (got %d)", *poolSize)
	}
	if *poolConns < 0 {
		usageError("-poolconns must be >= 0 (got %d)", *poolConns)
	}
	if *iters < 0 {
		usageError("-iters must be >= 0 (got %d)", *iters)
	}
	if *conns < 0 {
		usageError("-conns must be >= 0 (got %d)", *conns)
	}
	if *scp < 0 {
		usageError("-scp must be >= 0 (got %d)", *scp)
	}
	if *fig != 0 && *fig != 7 && *fig != 8 && *fig != 9 {
		usageError("-fig must be 7, 8 or 9 (got %d)", *fig)
	}
	if *table != 0 && *table != 2 {
		usageError("-table must be 2 (got %d)", *table)
	}
	levels, err := parseLevels(*poolLevels)
	if err != nil {
		usageError("-poollevels: %v", err)
	}
	// "all" fans the pool experiment out over every application; any
	// other value must name one of them.
	poolApps := []string{*poolApp}
	if *poolApp == "all" {
		poolApps = bench.FigPoolApps
	} else if _, err := bench.FigPoolVariants(*poolApp); err != nil {
		usageError("-app: %v", err)
	}

	if *soakPrincipals < 0 {
		usageError("-soakprincipals must be >= 0 (got %d)", *soakPrincipals)
	}
	if *soakConc < 0 {
		usageError("-soakconc must be >= 0 (got %d)", *soakConc)
	}
	if *runtimes < 2 {
		usageError("-runtimes must be >= 2 (got %d)", *runtimes)
	}
	if *clusterConns < 0 {
		usageError("-clusterconns must be >= 0 (got %d)", *clusterConns)
	}

	if !*all && *fig == 0 && *table == 0 && !*metrics && !*ablations && !*pool && !*soak && !*clusterFlag {
		flag.Usage()
		os.Exit(2)
	}

	var results []bench.Result
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "wedgebench:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *all || *fig == 7 {
		r, err := bench.Fig7(*iters)
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
	}
	if *all || *fig == 8 {
		r, err := bench.Fig8(*iters)
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
	}
	if *all || *fig == 9 {
		rows, r, err := bench.Fig9()
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
		fmt.Println("figure 9 detail (native / pin / crowbar, best of 3):")
		for _, row := range rows {
			fmt.Printf("  %-8s %10v %12v %12v   %5.1fx   %d records\n",
				row.Workload, row.Native, row.Pin, row.CBLog, row.Ratio, row.TraceRecords)
		}
		fmt.Println()
	}
	if *all || *table == 2 {
		r, err := bench.Table2(*conns, *scp)
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
	}
	if *all || *metrics {
		_, r, err := bench.Metrics()
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
		r, err = bench.ObjectCensus()
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
	}
	if *all || *pool {
		opts := bench.PoolOpts{Slots: *poolSize, Queue: *queue, AutoSlots: *autoslots, Drain: *drain}
		if *poolVariants != "" {
			opts.Variants = strings.Split(*poolVariants, ",")
		}
		for _, app := range poolApps {
			rows, r, err := bench.FigPoolApp(app, *poolConns, levels, opts)
			if err != nil {
				fail(err)
			}
			results = append(results, r...)
			order, _ := bench.FigPoolVariants(app)
			fmt.Printf("gatepool scaling detail, app=%s (req/s, p50/p99 session latency, by concurrent connections):\n", app)
			byVariant := map[string][]bench.PoolRow{}
			for _, row := range rows {
				byVariant[row.Variant] = append(byVariant[row.Variant], row)
			}
			for _, v := range order {
				fmt.Printf("  %-9s", v)
				for _, row := range byVariant[v] {
					fmt.Printf(" c=%-3d %7.0f (%v/%v)", row.Conns, row.RPS,
						row.P50.Round(time.Microsecond*10), row.P99.Round(time.Microsecond*10))
				}
				fmt.Println()
			}
			fmt.Println()
		}
	}
	if *all || *clusterFlag {
		rows, r, err := bench.Cluster(bench.ClusterOpts{
			Runtimes: *runtimes,
			Sessions: *clusterConns,
		})
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
		fmt.Printf("cluster cells, n=%d runtimes (req/s, p50/p99 session latency):\n", *runtimes)
		for _, row := range rows {
			fmt.Printf("  %-13s c=%-3d %9.0f req/s (p50 %v / p99 %v)",
				row.Cell, row.Conc, row.Stats.RPS,
				row.Stats.P50.Round(10*time.Microsecond), row.Stats.P99.Round(10*time.Microsecond))
			if row.Cell == "rolling-drain" {
				fmt.Printf("  removes=%d handoffs=%d (%d datagram flows), zero client-visible errors",
					row.Removes, row.Handoffs, row.Flows)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if *soak {
		rows, r, err := bench.Soak(bench.SoakOpts{
			App:         *soakApp,
			Principals:  *soakPrincipals,
			Conc:        *soakConc,
			Idle:        *soakIdle,
			SilentEvery: *soakSilent,
		})
		if err != nil {
			fail(err)
		}
		results = append(results, r...)
		fmt.Println("principal-churn soak (fresh principal per session; zero leaks verified):")
		for _, row := range rows {
			fmt.Printf("  %-5s %8d churns c=%-3d %9.0f req/s (p50 %v / p99 %v)  reaped=%d  peak conns=%d deepest shard=%d of %d\n",
				row.App, row.Principals, row.Conc, row.Stats.RPS,
				row.Stats.P50.Round(10*time.Microsecond), row.Stats.P99.Round(10*time.Microsecond),
				row.Reaped, row.PeakConns, row.PeakShard, row.Shards)
		}
		fmt.Println()
		if *clusterFlag {
			crows, cr, err := bench.ClusterSoak(bench.SoakOpts{
				Principals: *soakPrincipals,
				Conc:       *soakConc,
			}, *runtimes)
			if err != nil {
				fail(err)
			}
			results = append(results, cr...)
			fmt.Printf("cluster soak, n=%d runtimes (rolling drain mid-churn; zero leaks on every member verified):\n", *runtimes)
			for _, row := range crows {
				fmt.Printf("  %8d churns c=%-3d %9.0f req/s (p50 %v / p99 %v)  handoffs=%d\n",
					row.Principals, row.Conc, row.Stats.RPS,
					row.Stats.P50.Round(10*time.Microsecond), row.Stats.P99.Round(10*time.Microsecond),
					row.Reaped)
			}
			fmt.Println()
		}
	}
	if *all || *ablations {
		on, off, err := bench.AblationTagCache(*conns)
		if err != nil {
			fail(err)
		}
		static, eph, err := bench.AblationEphemeralRSA(*conns)
		if err != nil {
			fail(err)
		}
		results = append(results,
			bench.Result{Experiment: "ablations", Name: "apache wedge, tag cache on", Value: on, Unit: "req/s"},
			bench.Result{Experiment: "ablations", Name: "apache wedge, tag cache off", Value: off, Unit: "req/s"},
			bench.Result{Experiment: "ablations", Name: "monolithic ssl, static key", Value: static, Unit: "hs/s"},
			bench.Result{Experiment: "ablations", Name: "monolithic ssl, ephemeral keys", Value: eph, Unit: "hs/s"},
		)
	}

	fmt.Print(bench.Format(results))

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		if err := bench.WriteJSON(out, results); err != nil {
			fail(err)
		}
	}
}
