// Package benchfmt parses `go test -bench` output into structured
// results, serializes them as the repository's benchmark-trajectory JSON
// (BENCH_ci.json artifacts, BENCH_baseline.json), and gates the current
// run against a committed baseline.
//
// Only the simulation's virtual-time metrics (the *_Mbps figures, cycle
// counts, retention ratios) are deterministic across machines; ns/op and
// host_Mbps measure the simulator itself and vary with hardware. The
// regression gate therefore compares only higher-is-better throughput
// metrics (suffix "_Mbps" plus "voice_retention"), never wall-clock ones.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the "Benchmark" prefix and the
	// -GOMAXPROCS suffix stripped (e.g. "Table2_GCM_1core_128").
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Procs is the GOMAXPROCS suffix of the benchmark line (0 when the
	// line carried none): provenance for the host-side figures.
	Procs int `json:"procs,omitempty"`
}

// File is the serialized trajectory point.
type File struct {
	// Bench is the `-bench` expression the run used (provenance only).
	Bench   string   `json:"bench,omitempty"`
	Results []Result `json:"results"`
}

var benchLine = regexp.MustCompile(`^Benchmark([^\s]+)\s+(\d+)\s+(.*)$`)

// Parse reads `go test -bench` output, collecting every benchmark line
// and ignoring everything else (goos/pkg headers, PASS/ok trailers).
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		procs := 0
		// Strip the -N GOMAXPROCS suffix go test appends, keeping its value.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				procs = n
			}
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: bad iteration count in %q", sc.Text())
		}
		res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}, Procs: procs}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad metric value %q in %q", fields[i], sc.Text())
			}
			unit := fields[i+1]
			// Normalize "ns/op" -> "ns_op" so metric names are JSON-friendly.
			unit = strings.ReplaceAll(unit, "/", "_")
			res.Metrics[unit] = v
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJSON serializes results, sorted by name for stable diffs.
func WriteJSON(w io.Writer, bench string, results []Result) error {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{Bench: bench, Results: sorted})
}

// ReadJSON loads a serialized trajectory point.
func ReadJSON(r io.Reader) ([]Result, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return f.Results, nil
}

// Regression is one gate violation.
type Regression struct {
	Benchmark string
	Metric    string
	Baseline  float64
	Current   float64
	// Ratio is Current/Baseline (1.0 = unchanged; below the tolerance
	// threshold fails). Missing benchmarks report Ratio 0.
	Ratio float64
}

func (r Regression) String() string {
	if r.Current == 0 && r.Ratio == 0 && r.Metric == "" {
		return fmt.Sprintf("%s: benchmark missing from current run", r.Benchmark)
	}
	return fmt.Sprintf("%s %s: %.1f -> %.1f (%.0f%% of baseline)",
		r.Benchmark, r.Metric, r.Baseline, r.Current, 100*r.Ratio)
}

// gated reports whether a metric participates in the regression gate:
// deterministic higher-is-better figures only — virtual-time throughput
// (*_Mbps), the E12 voice retention ratio, and the E13 delivered
// fractions (*_delivered_frac, a loss curve read as higher-is-better so
// the same below-baseline rule applies).
func gated(metric string) bool {
	if strings.Contains(metric, "host") {
		return false // wall-clock throughput of the simulator itself
	}
	return strings.HasSuffix(metric, "_Mbps") || metric == "voice_retention" ||
		strings.HasSuffix(metric, "_delivered_frac")
}

// gatedLower reports whether a metric participates in the gate as a
// lower-is-better figure: the E14 wire-level latency percentiles
// (*wire*_p99_cycles). Deterministic virtual-time cycle counts, so a rise
// past tolerance is a real service-path regression, not noise. Scoped to
// names containing "wire" on purpose — the E13 in-process p99 metrics
// (voice_p99_cycles etc.) ride in the baseline ungated, and a blanket
// suffix rule would silently start gating them.
func gatedLower(metric string) bool {
	return strings.Contains(metric, "wire") && strings.HasSuffix(metric, "_p99_cycles")
}

// DeliveredFracTolerance caps the gate tolerance applied to
// *_delivered_frac metrics. A delivered fraction near 1.0 is a loss
// figure in disguise: the throughput gate's default 25% headroom would
// let a recorded ~0%-loss point silently decay to ~25% loss, so these
// metrics gate at the tighter of the requested tolerance and 2%.
const DeliveredFracTolerance = 0.02

// metricTolerance returns the effective tolerance for one gated metric.
func metricTolerance(metric string, tolerance float64) float64 {
	if strings.HasSuffix(metric, "_delivered_frac") && tolerance > DeliveredFracTolerance {
		return DeliveredFracTolerance
	}
	return tolerance
}

// Gate compares current results against a baseline for every benchmark
// whose name matches match (a regexp; empty matches all) and returns the
// violations: any gated metric below (1-tolerance) x baseline, any
// lower-is-better wire latency metric above (1+tolerance) x baseline, and
// any matched baseline benchmark absent from the current run. Improvements
// and new benchmarks never fail the gate — the baseline is refreshed by
// committing a new BENCH_baseline.json.
func Gate(current, baseline []Result, match string, tolerance float64) ([]Regression, error) {
	re, err := regexp.Compile(match)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: bad match expression: %w", err)
	}
	cur := map[string]Result{}
	for _, r := range current {
		cur[r.Name] = r
	}
	var out []Regression
	for _, base := range baseline {
		if !re.MatchString(base.Name) {
			continue
		}
		now, ok := cur[base.Name]
		if !ok {
			out = append(out, Regression{Benchmark: base.Name})
			continue
		}
		// Deterministic metric order for reproducible reports.
		metrics := make([]string, 0, len(base.Metrics))
		for m := range base.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			want := base.Metrics[m]
			if want <= 0 {
				continue
			}
			lower := gatedLower(m)
			if !lower && !gated(m) {
				continue
			}
			got, ok := now.Metrics[m]
			ratio := got / want
			bad := !ok
			if !bad {
				if lower {
					bad = ratio > 1+metricTolerance(m, tolerance)
				} else {
					bad = ratio < 1-metricTolerance(m, tolerance)
				}
			}
			if bad {
				out = append(out, Regression{
					Benchmark: base.Name, Metric: m,
					Baseline: want, Current: got, Ratio: ratio,
				})
			}
		}
	}
	return out, nil
}
