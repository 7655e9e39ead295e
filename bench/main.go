// Command bench is the repository's benchmark: five workloads, from one MCCP
// device to mccpserver's stack over loopback TCP, each reporting end-to-end
// metrics (untraced runs) or per-layer metrics (one traced run plus the
// host-cost ladder). BENCHMARK.json at the repository root declares the
// metrics and README.md explains them.
//
//	bash bench/run.sh --workload device-bulk --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out A.json
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run of one workload, with the spreads the last line leaves
// out; -out files hold these.
type outcome struct {
	Workload  string          `json:"workload"`
	Trace     bool            `json:"trace"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	info      []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for every workload untraced and traced")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition and the ladder")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	out := fs.String("out", "", "with -workload all: write the run-set to this file as JSON")
	compare := fs.Bool("compare", false, "compare two run-sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		o, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			printResult(stdout, result{Metrics: map[string]metricOut{}})
			return 1
		}
		report(stdout, o)
		res := result{Correct: true, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricOut{}}
		for k, s := range o.Metrics {
			res.Metrics[k] = metricOut{s.Value, s.Unit}
		}
		printResult(stdout, res)
		return 0
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q; the workloads are:\n", *name)
	for _, w := range workloads {
		fmt.Fprintf(stderr, "  %-13s %s\n", w.name, w.why)
	}
	return 2
}

func printResult(w io.Writer, r result) {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// report prints every metric by name with its unit and spread.
func report(w io.Writer, o *outcome) {
	kind := "end-to-end, untraced"
	if o.Trace {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "# %s (%s): %d attempted, %d failed; %d CPUs, %s\n", o.Workload, kind, o.Attempted, o.Failed, runtime.NumCPU(), runtime.Version())
	for _, line := range o.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := o.Metrics[k]
		if s.N > 0 {
			fmt.Fprintf(w, "%-38s %14.6g %-10s [%.6g .. %.6g] n=%d\n", k, s.Value, s.Unit, s.Lo, s.Hi, s.N)
		} else {
			fmt.Fprintf(w, "%-38s %14.6g %s\n", k, s.Value, s.Unit)
		}
	}
}

// runOpts are one run's settings; shrink is env.shrink.
type runOpts struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	shrink   int
}

// runWorkload is one run: -seconds of measurement on one workload.
func runWorkload(w workload, opts runOpts) (*outcome, error) {
	budget := time.Duration(opts.seconds / repsPerRun * float64(time.Second))
	e := env{seed: opts.seed, budget: budget, shrink: opts.shrink}
	if !opts.trace {
		reps, err := runReps(w, e, repsPerRun)
		if err != nil {
			return nil, err
		}
		more, err := extraSetups(w, e, len(reps))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		o := &outcome{Workload: w.name, Metrics: endToEndStats(reps, more)}
		for _, r := range reps {
			o.Attempted += r.attempted
			o.Failed += r.failed
		}
		o.info = reps[len(reps)-1].info
		return o, nil
	}

	// A traced run spends a third of its time on an untraced repetition
	// (the base of the tracing overhead and of the shares), a third on the
	// traced repetition and a third on the ladder.
	plain, err := runOnce(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s untraced repetition: %w", w.name, err)
	}
	runtime.GC()
	e.tr = newTracer()
	traced, err := runOnce(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", w.name, err)
	}
	if w.deterministic {
		if err := checkDeterminism([]*repetition{plain, traced}); err != nil {
			return nil, fmt.Errorf("%s: tracing changed the outputs: %w", w.name, err)
		}
	}
	traced.spans = mergeSpans(e.tr.spans, traced.spans)
	if opts.traceOut != "" {
		if err := writeSpans(opts.traceOut, traced.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	ladder, err := runLadder(budget, opts.seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	o := &outcome{
		Workload: w.name, Trace: true,
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Metrics: perLayerStats(w, plain, traced, ladder),
	}
	o.info = append(traced.info, fmt.Sprintf("%d spans recorded", len(traced.spans)))
	return o, nil
}

// perLayerStats assembles the per-layer metrics: exact counts and
// span-derived times from the traced repetition, unit costs from the ladder,
// and each layer's share of the untraced repetition's time per packet.
func perLayerStats(w workload, plain, traced *repetition, ladder map[string]float64) map[string]stat {
	v := map[string]float64{}
	for k, x := range traced.layer {
		v[k] = x
	}
	for k, x := range ladder {
		v[k] = x
	}
	nsPerPkt := float64(plain.wall) / float64(plain.pkts)
	tracedNsPerPkt := float64(traced.wall) / float64(traced.pkts)
	v["bench.trace_overhead_pct"] = 100 * (tracedNsPerPkt/nsPerPkt - 1)
	v["cluster.cores_busy"] = float64(plain.cpu) / float64(plain.wall)
	if traced.simCycles > 0 {
		v["core.sim_mbps"] = float64(traced.simBytes) * 8 / float64(traced.simCycles) * 190e6 / 1e6
	}

	selfNs, count := selfByName(traced.spans)
	if calls := count["radio.Encrypt"] + count["radio.Decrypt"]; calls > 0 {
		v["radio.submit_ns_per_pkt"] = float64(selfNs["radio.Encrypt"]+selfNs["radio.Decrypt"]) / float64(calls)
	}
	if events := v["sim.events_per_pkt"] * float64(traced.pkts); events > 0 {
		v["sim.step_ns_per_event"] = float64(selfNs["sim.Step"]) / events
	}

	// share = exact count per packet x isolated unit cost / measured time
	// per packet: what the layer would cost if its work ran as it does on
	// its own rung.
	share := func(perPkt, unitNs float64) float64 { return perPkt * unitNs / nsPerPkt }
	v["sim.share"] = share(v["sim.events_per_pkt"], nsPer(v["sim.rung_events_per_s"]))
	v["picoblaze.share"] = share(v["picoblaze.instr_per_pkt"], nsPer(v["picoblaze.rung_instr_per_s"]))
	v["cryptounit.share"] = share(v["cryptounit.issues_per_pkt"], nsPer(v["cryptounit.rung_issues_per_s"]))
	v["aes.share"] = share(v["aes.blocks_per_pkt"], v["aes.rung_ns_per_block"])
	v["ghash.share"] = share(v["ghash.muls_per_pkt"], v["ghash.rung_ns_per_mul"])

	rate := rateMedian(plain.rates, pktsPerS)
	switch w.name {
	case "cluster-mix":
		v["cluster.scale_eff"] = rate / (mixShards * v["cluster.rung_pkts_per_s.1shard"])
	case "wire-sat":
		v["server.tcp_share"] = 1 - rate/v["server.rung_loopback_req_per_s"]
	}

	out := map[string]stat{}
	for _, d := range perLayer {
		out[d.name] = stat{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// runSet is what -workload all writes and -compare reads.
type runSet struct {
	Seed    uint64     `json:"seed"`
	Seconds float64    `json:"seconds"`
	CPUs    int        `json:"cpus"`
	Go      string     `json:"go"`
	Runs    []*outcome `json:"runs"`
}

// runAll runs every workload untraced, then every workload traced, so a
// machine-wide drift lands on all workloads alike.
func runAll(seed uint64, seconds float64, out string, stdout, stderr io.Writer) int {
	set := runSet{Seed: seed, Seconds: seconds, CPUs: runtime.NumCPU(), Go: runtime.Version()}
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			o, err := runWorkload(w, runOpts{seed: seed, seconds: seconds, trace: trace})
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			report(stdout, o)
			set.Runs = append(set.Runs, o)
		}
	}
	if out == "" {
		return 0
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing %s: %v\n", out, err)
		return 1
	}
	return 0
}
