package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mccp/internal/server"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 99.9, 99}, // ten of a thousand lie beyond p99
		{1000, 99, 99},
		{1000, 90, 90},
		{100, 99, 90},
		{40, 90, 75},
		{12, 99, 50}, // never below the median
		{0, 99, 50},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := percentileOf(xs, 99.9); v != 990 || used != 99 {
		t.Errorf("percentileOf(1..1000, 99.9) = %g at p%g, want 990 at p99", v, used)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	pool := func(seed uint64) []byte { return bytes.Join(payloadPool(newRNG(seed).split(2), 8, 100), nil) }
	if !bytes.Equal(pool(1), pool(1)) {
		t.Error("payloads differ for equal seeds")
	}
	if bytes.Equal(pool(1), pool(2)) {
		t.Error("payloads equal for different seeds")
	}
	sched := func(seed uint64) []int64 { return openLoopSchedule(newRNG(seed).split(6), 10_000, time.Second) }
	a, b, c := sched(1), sched(1), sched(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ for equal seeds at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due instants %d and %d are out of order", i-1, i)
		}
	}
	if a[0] == c[0] && a[1] == c[1] {
		t.Error("schedules are equal for different seeds")
	}
	if last := a[len(a)-1]; last != int64(time.Second) {
		t.Errorf("the last request is due at %d ns, want exactly the span", last)
	}
	// A child stream does not move when a sibling is added before it is used.
	r1, r2 := newRNG(9), newRNG(9)
	x := r1.split(1).next()
	r2.split(1)
	if y := r2.split(2).next(); x == y {
		t.Error("sibling streams coincide")
	}
	nonce := make([]byte, 12)
	stampNonce(nonce, 0x0102030405060708)
	if !bytes.Equal(nonce[4:], []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("stampNonce wrote %x", nonce)
	}
	if foldInit.bytes([]byte("abcdefghi")) == foldInit.bytes([]byte("abcdefghj")) {
		t.Error("fold ignores the tail byte")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// The per-request tiling of the wire workloads: whatever the server
	// reports, the four parts sum to the round trip.
	tr := &tracer{}
	wc := &wireConn{tr: tr}
	wc.traceRequest(7, 1000, 1200, 9000, server.Timing{QueueNs: 2500, ServiceNs: 3000})
	rep := &repetition{layer: map[string]float64{}, spans: tr.spans}
	wireTiling(rep)
	if rep.layer["server.tiling_gap_ns"] != 0 {
		t.Errorf("tiling gap %g ns", rep.layer["server.tiling_gap_ns"])
	}
	sum := rep.layer["server.encode_us"] + rep.layer["server.transport_us"] + rep.layer["server.batch_wait_us"] + rep.layer["server.service_us"]
	if math.Abs(sum-8) > 1e-9 {
		t.Errorf("parts sum to %g us, want the 8 us round trip", sum)
	}
	merged := mergeSpans(spans, tr.spans)
	if got := merged[len(spans)+1]; got.ID != len(spans)+2 || got.Parent != len(spans)+1 {
		t.Errorf("merged child is %+v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"cpu_us_per_pkt", "us", "lower", 0.10}
	higher := metricDef{"host_pkts_per_s", "packets/s", "higher", 0.10}
	tight := func(v float64) stat { return stat{Value: v, Lo: v * 0.99, Hi: v * 1.01} }
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(50), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(130), "ok"},
		{lower, stat{Value: 100, Lo: 90, Hi: 110}, tight(115), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %g -> %g: %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	mk := func(v float64) *runSet {
		o := &outcome{Workload: "device-bulk", Metrics: map[string]stat{}}
		for _, d := range endToEnd {
			o.Metrics[d.name] = tight(v)
		}
		return &runSet{Seed: 1, Runs: []*outcome{o}}
	}
	var out bytes.Buffer
	if code := compareSets(mk(100), mk(100), &out); code != 0 {
		t.Errorf("equal run-sets compare with exit code %d:\n%s", code, out.String())
	}
	if code := compareSets(mk(100), mk(140), &out); code != 1 {
		t.Errorf("a 40%% worse run-set compares with exit code %d", code)
	}
}

// smoke runs every workload once untraced and once traced at a sixteenth of
// the batch sizes, and returns the metrics each printed.
func smoke(t *testing.T) map[string]map[string]stat {
	t.Helper()
	got := map[string]map[string]stat{}
	for _, w := range workloads {
		all := map[string]stat{}
		for _, trace := range []bool{false, true} {
			o, err := runWorkload(w, runOpts{seed: 7, seconds: 0.15, trace: trace, shrink: 16})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if o.Attempted < 1 || o.Failed != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed", w.name, trace, o.Attempted, o.Failed)
			}
			for k, s := range o.Metrics {
				all[k] = s
			}
		}
		got[w.name] = all
	}
	return got
}

func TestSmokeAndSchema(t *testing.T) {
	got := smoke(t)

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", decl.RunSeconds, decl.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range decl.EndToEnd {
		name("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range decl.PerLayer {
		name("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}

	// Every declared metric is emitted on every workload, with its unit;
	// end-to-end metrics are never zero.
	for _, w := range workloads {
		for _, d := range endToEnd {
			s, ok := got[w.name][d.name]
			if !ok || s.Unit != d.unit || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.name, d.name, s, ok)
			}
		}
		for _, d := range perLayer {
			if s, ok := got[w.name][d.name]; !ok || s.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, d.name, s, ok)
			}
		}
		if n := len(got[w.name]); n != len(endToEnd)+len(perLayer) {
			t.Errorf("%s emitted %d metrics, BENCHMARK.json declares %d", w.name, n, len(endToEnd)+len(perLayer))
		}
	}

	// What the traced runs must show (acceptance criteria of the issue).
	for _, wire := range []string{"wire-sat", "wire-open"} {
		m := got[wire]
		if gap := m["server.tiling_gap_ns"].Value; gap > 1000 {
			t.Errorf("%s: encode+transport+batch_wait+service misses the round trip by %g ns", wire, gap)
		}
		if m["server.service_us"].Value <= 0 || m["server.transport_us"].Value <= 0 {
			t.Errorf("%s: empty tiling %+v", wire, m["server.service_us"])
		}
	}
	mix := got["cluster-mix"]
	if mix["obs.stage_gap_cycles"].Value != 0 || mix["obs.stage.core_cycles"].Value <= 0 {
		t.Errorf("cluster-mix: stages do not tile the voice spans: gap %g, core %g", mix["obs.stage_gap_cycles"].Value, mix["obs.stage.core_cycles"].Value)
	}
	if got["device-bulk"]["sim.events_per_pkt"].Value <= 0 || got["device-churn"]["keysched.expansions_per_pkt"].Value <= 0 {
		t.Error("device workloads report no exact counts")
	}
	if a := got["wire-sat"]["bench.gen_allocs_per_pkt"].Value; a >= 0.1 {
		t.Errorf("the wire generator allocates %g times per packet on its own", a)
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloads[:2] {
		e := env{seed: 7, budget: 1, shrink: 16}
		if _, err := runOnce(w, e); err != nil {
			t.Fatalf("%s with a sound reference: %v", w.name, err)
		}
		e.corruptRef = true
		_, err := runOnce(w, e)
		if err == nil || !strings.Contains(err.Error(), "reference") {
			t.Errorf("%s with a corrupted reference: err = %v, want a reference mismatch", w.name, err)
		}
	}
}

func TestDeterminismCheck(t *testing.T) {
	rep := func(w ...uint64) *repetition { return &repetition{witness: w} }
	if err := checkDeterminism([]*repetition{rep(1, 2, 3), rep(1, 2), rep(1, 2, 3, 4)}); err != nil {
		t.Errorf("equal prefixes: %v", err)
	}
	if err := checkDeterminism([]*repetition{rep(1, 2, 3), rep(1, 9, 3)}); err == nil {
		t.Error("a differing batch passed")
	}
	if err := checkDeterminism([]*repetition{rep(1), rep()}); err == nil {
		t.Error("an empty repetition passed")
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errOut.String(), "wire-open") {
		t.Errorf("unknown workload does not list the workloads: %s", errOut.String())
	}
	if code := run([]string{"--workload", "device-bulk", "--trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("-trace 2: exit %d", code)
	}
}
