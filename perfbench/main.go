// Command perfbench runs one workload of the repository benchmark and
// prints its result; see package harness for the workloads and metrics.
//
//	perfbench --workload pag-steady --seed 1 --seconds 32 --trace 0
//
// Standard output carries the full report as one JSON line, then the
// result line {"correct", "attempted", "failed", "metrics"}; --workload
// all does so for every workload in turn. With --dump-timeline it prints
// the pag-churn-faults timeline of the seed instead, as a scenario file
// that `pag-scenario -file F -nodes 144 -modulus 128 -stream 60` replays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/perfbench/harness"
)

func main() {
	workload := flag.String("workload", "", `workload name, or "all" to run every workload in turn`)
	seed := flag.Uint64("seed", 1, "workload seed (drives the session and any generated timeline)")
	seconds := flag.Int("seconds", 32, "measurement budget in seconds; sizes the measured rounds")
	trace := flag.Int("trace", 0, "1 runs the traced episode and reports per-layer metrics")
	dump := flag.Bool("dump-timeline", false, "print the workload's generated timeline as scenario JSON and exit")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, dump bool) error {
	workloads := harness.Workloads
	if name != "all" {
		w, err := harness.WorkloadByName(name)
		if err != nil {
			return err
		}
		workloads = []harness.Workload{w}
	}
	if seed == 0 {
		return fmt.Errorf("--seed must be positive")
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	for _, w := range workloads {
		if err := runWorkload(w, seed, seconds, trace == 1, dump); err != nil {
			return err
		}
	}
	return nil
}

func runWorkload(w harness.Workload, seed uint64, seconds int, trace, dump bool) error {
	if dump {
		if !w.Churn {
			return fmt.Errorf("workload %s runs no timeline", w.Name)
		}
		sc := harness.ChurnScenario(seed, w.Nodes, harness.MeasuredRounds(w, seconds))
		_, err := os.Stdout.Write(append(sc.JSON(), '\n'))
		return err
	}
	if w.Blocked != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s is left out of BENCHMARK.json: %s\n", w.Name, w.Blocked)
	}
	res, err := harness.Run(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check %s failed: %s\n", w.Name, c.Name, c.Detail)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		return err
	}
	return enc.Encode(res.Summary())
}
