package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func (s *runSet) find(workload string, trace bool) *outcome {
	for _, o := range s.Runs {
		if o.Workload == workload && o.Trace == trace {
			return o
		}
	}
	return nil
}

// verdict judges one end-to-end metric of B against A. worse is how much
// B's value is worse than A's as a share of A's (negative = better). A cell
// whose values range over more than the bound within either run cannot
// resolve a difference of the bound's size: it is unresolved, not ok.
func verdict(d metricDef, a, b stat) (worse float64, word string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	worse = (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		worse = -worse
	}
	spread := func(s stat) float64 { return (s.Hi - s.Lo) / s.Value }
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "worse"
	}
	return worse, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and returns
// 1 if any row is worse. Per-layer metrics have no bound; the exact ones
// (counts, virtual cycles) are listed when they differ at all, because any
// such difference is a change to the model, not a speed-up.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*runSet
	for i, path := range []string{pathA, pathB} {
		set, err := readRunSet(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(sets[0], sets[1], stdout)
}

func compareSets(a, b *runSet, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A: seed %d, %g s, %d CPUs, %s\nB: seed %d, %g s, %d CPUs, %s\n\n",
		a.Seed, a.Seconds, a.CPUs, a.Go, b.Seed, b.Seconds, b.CPUs, b.Go)
	fmt.Fprintf(stdout, "%-13s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B worse", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		oa, ob := a.find(w.name, false), b.find(w.name, false)
		if oa == nil || ob == nil {
			continue
		}
		for _, d := range endToEnd {
			worse, word := verdict(d, oa.Metrics[d.name], ob.Metrics[d.name])
			if word == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				w.name, d.name, oa.Metrics[d.name].Value, ob.Metrics[d.name].Value, 100*worse, 100*d.bound, word)
		}
		if oa.Failed != ob.Failed {
			fmt.Fprintf(stdout, "%-13s failed operations: %d of %d in A, %d of %d in B\n", w.name, oa.Failed, oa.Attempted, ob.Failed, ob.Attempted)
		}
	}
	fmt.Fprintln(stdout)
	differ := 0
	for _, w := range workloads {
		oa, ob := a.find(w.name, true), b.find(w.name, true)
		if !w.deterministic || oa == nil || ob == nil || a.Seed != b.Seed {
			continue
		}
		for _, d := range perLayer {
			if !exactLayerMetric[d.name] {
				continue
			}
			if x, y := oa.Metrics[d.name].Value, ob.Metrics[d.name].Value; x != y {
				differ++
				fmt.Fprintf(stdout, "%-13s %-30s %.10g != %.10g: exact count differs, the model changed\n", w.name, d.name, x, y)
			}
		}
	}
	if a.Seed == b.Seed && differ == 0 {
		fmt.Fprintln(stdout, "exact per-layer counts and virtual-time figures: identical")
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// exactLayerMetric marks the per-layer metrics that are pure functions of
// (code, seed) per packet, on the deterministic workloads.
var exactLayerMetric = map[string]bool{
	"sim.events_per_pkt": true, "picoblaze.instr_per_pkt": true, "cryptounit.issues_per_pkt": true,
	"aes.blocks_per_pkt": true, "ghash.muls_per_pkt": true, "crossbar.grants_per_pkt": true,
	"crossbar.busy_frac": true, "keysched.expansions_per_pkt": true, "core.busy_frac": true,
	"core.queued_per_pkt": true, "core.sim_cycles_per_pkt": true, "core.sim_mbps": true,
	"core.sim_err_pct": true, "qos.shed_per_kpkt": true,
}
