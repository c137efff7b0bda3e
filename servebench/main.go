// Command servebench measures the pooled wedge serving stack end to end:
// pop3 and dnsd on the gate pool and batch ring, alone or behind the
// cluster director, driven over the simulated network by a closed-loop
// client in this process. Run it through run.sh, which builds it first:
//
//	bash servebench/run.sh --workload pop3-churn --seed 1 --seconds 10 --trace 0
//
// The last line of output is one JSON object: whether every output was
// correct, the ops attempted and failed, and the metrics. With --trace 0
// those are the end-to-end metrics, the timings each the median over the
// slices of the measured interval (setup_s is the median of several cold
// set-ups). With --trace 1 the run is split into a plain half and a
// traced half, and the metrics are the per-layer counts and spans of the
// traced half plus its overhead against the plain half. A wrong answer,
// a failed op or an unbalanced ledger makes the run exit with status 1.
// `go test` in this directory runs every workload briefly as a self-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: pop3-churn, pop3-resident, dns-signed or cluster-pop3")
	seed := flag.Uint64("seed", 1, "seed the run's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured interval in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	// A hung exchange (say, a lost datagram) must not hang the caller:
	// past this limit the run fails without a result, leaving the
	// goroutine stacks on stderr for diagnosis.
	time.AfterFunc(2*dur+60*time.Second, func() {
		fmt.Fprintln(os.Stderr, "servebench: run exceeded its time limit")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(2)
	})

	res, err := run(*name, *seed, dur, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
