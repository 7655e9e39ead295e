// benchjson converts `go test -bench` output into the repository's
// benchmark-trajectory JSON, optionally gates it against a committed
// baseline, and runs the harness registry's CI gates — in CI, all in one
// invocation (see .github/workflows/ci.yml):
//
//	go test -run '^$' -bench 'Table2|...' -benchtime 1x . | benchjson -out BENCH_ci.json \
//	    -baseline BENCH_baseline.json -gates all
//
// Only deterministic virtual-time throughput metrics (*_Mbps at the
// modeled 190 MHz, voice_retention) participate in the baseline gate;
// ns/op and allocs/op describe the host machine and are recorded but
// never gated (host numbers live in bench/; the root tests
// TestTable2HostBudget and the allocation tests hold the host-side
// bounds). -gates runs the simulation directly and needs no bench input;
// it composes with the other checks when input is given. Exit status: 0
// clean, 1 regression/gate violation, 2 usage/IO error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	benchExpr := fs.String("bench", "", "provenance note: the -bench expression the run used")
	baselinePath := fs.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	match := fs.String("match", "Table2", "regexp of benchmark names the gate covers")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional throughput drop before the gate fails")
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
		if *in == "-" && *out+*baselinePath == "" {
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
