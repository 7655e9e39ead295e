// benchjson converts `go test -bench` output into the repository's
// benchmark-trajectory JSON, optionally gates it against a committed
// baseline, and runs the harness registry's CI gates — in CI, all in one
// invocation (see .github/workflows/ci.yml):
//
//	go test -run '^$' -bench 'Table2|...' -benchtime 1x . | benchjson -out BENCH_ci.json \
//	    -baseline BENCH_baseline.json -hostbudget 'Table2_GCM_1core_128=60' -gates all
//
// Only deterministic virtual-time throughput metrics (*_Mbps at the
// modeled 190 MHz, voice_retention) participate in the baseline gate;
// ns/op, host_Mbps and allocs/op describe the host machine and are
// recorded — -hostout writes them to a separate informational trajectory
// file — but never gated against the baseline. Three targeted host-side
// checks exist instead: -hostbudget, -clusterscale and -allocspacket
// (each documented at its check function). -gates runs the simulation
// directly and needs no bench input; it composes with the other checks
// when input is given. Exit status: 0 clean, 1 regression/budget/gate
// violation, 2 usage/IO error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"mccp/internal/benchfmt"
	"mccp/internal/harness"
	"mccp/internal/obs"
)

// failure is a violated check (exit status 1); any other error is a
// usage or IO problem (exit status 2).
type failure struct{ error }

func failf(format string, args ...any) error { return failure{fmt.Errorf(format, args...)} }

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its process edges injected.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	err := execute(args, stdin, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "benchjson: %v\n", err)
	if errors.As(err, new(failure)) {
		return 1
	}
	return 2
}

func execute(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "bench output to read (- = stdin)")
	out := fs.String("out", "", "write trajectory JSON here (empty = skip)")
	hostOut := fs.String("hostout", "", "write host-speed metrics (ns/op, host_Mbps, allocs/op) here (empty = skip)")
	benchExpr := fs.String("bench", "", "provenance note: the -bench expression the run used")
	baselinePath := fs.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	match := fs.String("match", "Table2", "regexp of benchmark names the gate covers")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional throughput drop before the gate fails")
	hostBudget := fs.String("hostbudget", "", "host-speed smoke check, 'BenchName=seconds': fail if that benchmark's wall clock exceeded the budget")
	clusterScale := fs.String("clusterscale", "", "cluster host-scaling gate, 'Top:Base=ratio' (e.g. 'Cluster/shards=8:Cluster/shards=1=1.5'): fail if Top's host_Mbps is below ratio x Base's; derated to 0.6 x GOMAXPROCS and skipped on single-CPU runs, where host-parallel speedup is impossible")
	allocsBudget := fs.String("allocspacket", "", "allocation ceiling, 'BenchName=allocs': fail if the benchmark's allocs_op per packet exceeds the ceiling")
	gates := fs.String("gates", "", "run the harness registry's CI gates in-process and fail on any violation: 'all' or a comma-separated subset of "+strings.Join(gateNames(), ","))
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.VersionLine("benchjson"))
		return nil
	}

	if *gates != "" {
		if err := runGates(*gates, stdout); err != nil {
			return err
		}
		// A gates-only invocation reads no bench input; any flag that
		// consumes input means the caller piped some in.
		if *in == "-" && *out+*hostOut+*baselinePath+*hostBudget+*clusterScale+*allocsBudget == "" {
			return nil
		}
	}

	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		stdin = f
	}
	results, err := benchfmt.Parse(stdin)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", *in)
	}

	if *out != "" {
		if err := writeResults(stdout, *out, *benchExpr, results); err != nil {
			return err
		}
	}
	if *hostOut != "" {
		host := benchfmt.HostOnly(results)
		if len(host) == 0 {
			return fmt.Errorf("no host metrics found for -hostout")
		}
		if err := writeResults(stdout, *hostOut, *benchExpr, host); err != nil {
			return err
		}
	}
	for _, check := range []struct {
		spec string
		run  func(io.Writer, string, []benchfmt.Result) error
	}{{*hostBudget, checkHostBudget}, {*clusterScale, checkClusterScale}, {*allocsBudget, checkAllocsPerPacket}} {
		if check.spec != "" {
			if err := check.run(stdout, check.spec, results); err != nil {
				return err
			}
		}
	}

	if *baselinePath == "" {
		return nil
	}
	bf, err := os.Open(*baselinePath)
	if err != nil {
		return err
	}
	baseline, err := benchfmt.ReadJSON(bf)
	bf.Close()
	if err != nil {
		return err
	}
	regs, err := benchfmt.Gate(results, baseline, *match, *tolerance)
	if err != nil {
		return err
	}
	if len(regs) > 0 {
		msg := fmt.Sprintf("%d regression(s) beyond %.0f%% against %s:", len(regs), 100**tolerance, *baselinePath)
		for _, r := range regs {
			msg += "\n  " + r.String()
		}
		return failf("%s", msg)
	}
	fmt.Fprintf(stdout, "benchjson: gate clean (%q, tolerance %.0f%%) against %s\n",
		*match, 100**tolerance, *baselinePath)
	return nil
}

func gateNames() []string {
	var names []string
	for _, g := range harness.Gates() {
		names = append(names, g.Name)
	}
	return names
}

// runGates runs the selected registry gates ('all' or comma-separated
// names), printing each verdict with the gate's doc line, and fails on the
// first violation. Wall-clock clauses are enforced here, unlike under go test.
func runGates(spec string, w io.Writer) error {
	all := harness.Gates()
	picked := all
	if spec != "all" {
		picked = nil
		for _, name := range strings.Split(spec, ",") {
			i := slices.IndexFunc(all, func(g harness.Gate) bool { return g.Name == name })
			if i < 0 {
				return fmt.Errorf("unknown gate %q in -gates (want all or any of %s)", name, strings.Join(gateNames(), ","))
			}
			picked = append(picked, all[i])
		}
	}
	for _, g := range picked {
		r := g.Check()
		violations := append(r.Violations, r.HostViolations...)
		verdict := "ok"
		if len(violations) > 0 {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "benchjson: gate %s %s: %s\n", g.Name, verdict, r.Summary)
		fmt.Fprintf(w, "benchjson:   checks: %s\n", g.Doc)
		for _, d := range r.Details {
			fmt.Fprintf(w, "benchjson:   %s\n", d)
		}
		if len(violations) > 0 {
			return failf("gate %s violated: %s\n  the gate checks: %s", g.Name, strings.Join(violations, "; "), g.Doc)
		}
	}
	return nil
}

func writeResults(w io.Writer, path, benchExpr string, results []benchfmt.Result) error {
	var buf bytes.Buffer
	if err := benchfmt.WriteJSON(&buf, benchExpr, results); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchjson: wrote %d results to %s\n", len(results), path)
	return nil
}

// checkHostBudget enforces 'BenchName=seconds': the named benchmark's total
// wall clock (ns/op x iterations) must stay under the budget. This is a
// catastrophic-kernel-regression smoke check, so budgets should be set an
// order of magnitude above a healthy run.
func checkHostBudget(w io.Writer, spec string, results []benchfmt.Result) error {
	name, limit, err := parseSpec("hostbudget", spec, "BenchName=seconds")
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Name != name {
			continue
		}
		wall := r.Metrics["ns_op"] * float64(r.Iterations) / 1e9
		if wall > limit {
			return failf("host-speed smoke check failed: %s took %.1fs (budget %.0fs) — the simulation kernel has regressed catastrophically", name, wall, limit)
		}
		fmt.Fprintf(w, "benchjson: host budget ok: %s took %.2fs (budget %.0fs)\n", name, wall, limit)
		return nil
	}
	return failf("host budget benchmark %q missing from results", name)
}

// checkClusterScale enforces 'Top:Base=ratio': Top's host_Mbps must reach
// ratio x Base's. The requested ratio is derated to what the run's CPU
// count makes possible (0.6 x GOMAXPROCS); single-CPU runs skip the
// check with a notice — the pipelined dispatcher cannot manufacture
// parallel wall-clock speedup without CPUs to run the shards on.
func checkClusterScale(w io.Writer, spec string, results []benchfmt.Result) error {
	pair, minRatio, err := parseSpec("clusterscale", spec, "Top:Base=ratio")
	if err != nil {
		return err
	}
	top, base, ok := strings.Cut(pair, ":")
	if !ok {
		return fmt.Errorf("bad -clusterscale %q (want 'Top:Base=ratio')", spec)
	}
	// A missing benchmark is a gate failure (exit 1), like -hostbudget's
	// equivalent case — only malformed specs are usage errors.
	h, err := benchfmt.CheckHostScale(results, top, base, minRatio)
	if err != nil {
		return failure{err}
	}
	if h.Skipped != "" {
		fmt.Fprintf(w, "benchjson: cluster scaling check skipped (%s; measured %.2fx)\n", h.Skipped, h.Ratio)
		return nil
	}
	if !h.Pass() {
		return failf("cluster host scaling regressed: %s is %.2fx %s in host_Mbps (want >= %.2fx) — the pipelined dispatch path has serialized", top, h.Ratio, base, h.Want)
	}
	fmt.Fprintf(w, "benchjson: cluster scaling ok: %s = %.2fx %s host_Mbps (floor %.2fx)\n", top, h.Ratio, base, h.Want)
	return nil
}

// checkAllocsPerPacket enforces 'BenchName=allocs': the benchmark's
// allocs_op spread over its packets metric must stay under the ceiling —
// the zero-alloc packet path's regression guard.
func checkAllocsPerPacket(w io.Writer, spec string, results []benchfmt.Result) error {
	name, limit, err := parseSpec("allocspacket", spec, "BenchName=allocs")
	if err != nil {
		return err
	}
	perPkt, err := benchfmt.AllocsPerPacket(results, name)
	if err != nil {
		return failure{err} // missing benchmark/metric fails the gate, not usage
	}
	if perPkt > limit {
		return failf("allocation regression: %s allocates %.0f objects/packet (ceiling %.0f) — the packet path has started allocating again", name, perPkt, limit)
	}
	fmt.Fprintf(w, "benchjson: allocs ok: %s at %.0f allocs/packet (ceiling %.0f)\n", name, perPkt, limit)
	return nil
}

// parseSpec splits a 'Name=number' check spec on its LAST '=' —
// benchmark names (Cluster/shards=8) carry their own — and requires a
// positive number.
func parseSpec(flagName, spec, want string) (string, float64, error) {
	i := strings.LastIndex(spec, "=")
	v, err := strconv.ParseFloat(spec[i+1:], 64)
	if i < 0 || err != nil || v <= 0 {
		return "", 0, fmt.Errorf("bad -%s %q (want '%s')", flagName, spec, want)
	}
	return spec[:i], v, nil
}
