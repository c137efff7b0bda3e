package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the self-check holds the
// benchmark to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSelfCheck runs every workload briefly, plain and traced. Each run
// must be correct and print exactly the metrics BENCHMARK.json names,
// with their units, and the traced counts must confirm what each
// workload is for: one admission per op where every op is a fresh
// session, none where sessions and flows are held, and the resolve gate
// taking most of a dns query's time.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			plain, err := run(name, 7, 2*time.Second, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, sp.EndToEnd)
			traced, err := run(name, 7, 2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, sp.PerLayer)

			m := func(n string) float64 { return traced.Metrics[n].Value }
			switch admitted := m("serve.admitted_per_op"); name {
			case "pop3-churn", "cluster-pop3":
				if math.Abs(admitted-1) > 0.01 {
					t.Errorf("serve.admitted_per_op = %v, want about 1: every op is a fresh session", admitted)
				}
			case "pop3-resident", "dns-signed":
				if admitted > 0.001 {
					t.Errorf("serve.admitted_per_op = %v, want about 0: sessions and flows are held", admitted)
				}
			}
			if name == "dns-signed" {
				gate, toGate := m("dnsd.gate_to_answer_us"), m("dnsd.query_to_gate_us")
				if gate <= toGate {
					t.Errorf("dnsd.gate_to_answer_us = %v is not most of the query (query_to_gate_us = %v)", gate, toGate)
				}
			}
			if name == "cluster-pop3" {
				if s := m("cluster.snapshots_per_session"); math.Abs(s-2) > 0.01 {
					t.Errorf("cluster.snapshots_per_session = %v, want about 2: pick reads two members", s)
				}
			}
			for _, span := range spansOn[name] {
				if v := m(span); v <= 0 {
					t.Errorf("%s = %v: the span was never stamped on %s", span, v, name)
				}
			}
		})
	}
}

// spansOn names the spans each workload must stamp.
var spansOn = map[string][]string{
	"pop3-churn": {"netsim.dial_us", "netsim.accept_us", "serve.admit_to_body_us", "serve.session_us",
		"pop3.greet_us", "pop3.user_us", "pop3.pass_us", "pop3.retr_us", "pop3.quit_us"},
	"pop3-resident": {"pop3.retr_us"},
	"dns-signed":    {"dnsd.query_to_gate_us", "dnsd.gate_to_answer_us"},
	"cluster-pop3": {"netsim.dial_us", "netsim.accept_us", "serve.admit_to_body_us", "serve.session_us",
		"cluster.session_us", "cluster.member_session_us", "cluster.snapshot_us"},
}

func checkResult(t *testing.T, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := r.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
}
