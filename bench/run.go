package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// repsPerRun is the number of repetitions one run splits its -seconds into.
// Every repetition sets the system up from nothing, so one run yields three
// set-up times, and the deterministic workloads replay the same inputs three
// times, which is what the determinism self-check compares.
const repsPerRun = 3

// env is what one repetition of a workload is given.
type env struct {
	seed   uint64
	budget time.Duration // length of the timed region
	tr     *tracer       // nil = untraced
	// corruptRef flips one bit of every key the independent reference is
	// built over; the output checks must then fail (bench_test.go).
	corruptRef bool
	// shrink divides the fixed batch sizes (0 and 1 leave them whole): the
	// smoke test's internal scale argument, never a command-line flag,
	// because batch sizes are part of what the workloads are.
	shrink int
}

// sized returns the batch size n under e.shrink, but at least floor.
func (e env) sized(n, floor int) int {
	if e.shrink > 1 {
		n /= e.shrink
	}
	return max(n, floor)
}

// batchesFor calls batch with 0, 1, 2... until budget has passed (but at
// least twice, so a tiny budget still yields a comparable prefix) or batch
// returns false.
func batchesFor(budget time.Duration, batch func(no int) bool) {
	deadline := time.Now().Add(budget)
	for no := 0; no < 2 || time.Now().Before(deadline); no++ {
		if !batch(no) {
			return
		}
	}
}

// workload is one set of inputs.
type workload struct {
	name string
	why  string
	// deterministic workloads must repeat their per-batch witnesses
	// exactly across repetitions.
	deterministic bool
	// setup builds the system under test from nothing, up to and including
	// one verified warm-up packet per session: everything setup_s times.
	// Per-layer values measured on the way go into the repetition.
	setup func(env, *repetition) (instance, error)
}

// instance is one set-up system, ready for its timed region.
type instance interface {
	// measure drives the system for env.budget inside rep.timed, checks
	// its outputs and fills rep.
	measure(rep *repetition) error
	// close stops every goroutine and socket the instance owns.
	close()
}

// runOnce is one repetition: set up, measure, tear down.
func runOnce(w workload, e env) (*repetition, error) {
	rep := &repetition{layer: map[string]float64{}}
	start := time.Now()
	inst, err := w.setup(e, rep)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	rep.setupS = time.Since(start).Seconds()
	if err := inst.measure(rep); err != nil {
		return nil, err
	}
	if rep.pkts == 0 {
		return nil, fmt.Errorf("no packet completed")
	}
	return rep, nil
}

// minSetups is the number of set-up times setup_s is the median of. The
// repetitions supply the first three; the rest are set-ups torn down unused,
// because a device set-up takes about a millisecond, a wire set-up ranges
// from 2.3 to 4.7 ms with the luck of its goroutine wake-ups, and three
// samples of either would not be a steady number.
const minSetups = 51

// extraSetups times set-ups that are torn down unused, until there are
// minSetups samples or they have taken a second and a half.
func extraSetups(w workload, e env, have int) ([]float64, error) {
	var out []float64
	e.tr = nil
	for begun := time.Now(); have+len(out) < minSetups && time.Since(begun) < 1500*time.Millisecond; {
		runtime.GC() // as before a repetition: no set-up pays for its predecessor's garbage
		start := time.Now()
		inst, err := w.setup(e, &repetition{layer: map[string]float64{}})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
		inst.close()
	}
	return out, nil
}

// rateSample is the work completed in one batch (closed loops) or one time
// slice (wire workloads); the rate metrics are medians over these.
type rateSample struct {
	wallNs int64
	pkts   int64
	bytes  int64
}

// repetition is everything one repetition measured.
type repetition struct {
	setupS float64

	// Timed region totals.
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	pkts, payloadBytes  int64 // verified, completed packets and their payload

	attempted, failed int64
	// expected counts operations whose non-OK verdict the workload asked
	// for (flipped tags); they are neither completed nor failed.
	expected int64

	rates []rateSample
	latUs []float64 // wall latency per unit of work (see README)

	// simCycles is the virtual makespan in which simBytes of payload were
	// delivered: over a fixed prefix of batches on the deterministic
	// workloads (exactPrefix), over the timed region on the wire ones.
	simCycles uint64
	simBytes  int64

	// witness holds one fold per batch of everything that must repeat
	// exactly: virtual cycles, exact counts and output bytes.
	witness []uint64

	layer map[string]float64 // per-layer values this repetition measured
	spans []span
	info  []string // lines for the human-readable report
}

func (r *repetition) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *repetition) addRate(wall time.Duration, pkts, bytes int64) {
	r.rates = append(r.rates, rateSample{int64(wall), pkts, bytes})
	r.pkts += pkts
	r.payloadBytes += bytes
}

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// timed runs fn as the repetition's timed region and books its resources.
func (r *repetition) timed(fn func()) {
	u0 := readUsage()
	fn()
	u1 := readUsage()
	r.wall += u1.at.Sub(u0.at)
	r.cpu += u1.cpu - u0.cpu
	r.mallocs += u1.mallocs - u0.mallocs
	r.allocBytes += u1.bytes - u0.bytes
}

// stat is one reported metric: the value, the range of the per-repetition
// values behind it (for setup_s, of the medians of three groups of set-ups),
// and the number of samples the value rests on.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	N     int     `json:"n"`
}

// runReps runs n repetitions of w, collecting garbage between them so one
// repetition's teardown is not billed to the next one's timed region.
func runReps(w workload, e env, n int) ([]*repetition, error) {
	reps := make([]*repetition, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		rep, err := runOnce(w, e)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i+1, err)
		}
		reps = append(reps, rep)
	}
	if w.deterministic {
		if err := checkDeterminism(reps); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return reps, nil
}

// checkDeterminism requires the repetitions to agree on every batch witness
// they share (time-boxed repetitions complete different numbers of batches;
// the common prefix replays identical inputs from an identical state).
func checkDeterminism(reps []*repetition) error {
	for i := 1; i < len(reps); i++ {
		a, b := reps[0].witness, reps[i].witness
		n := min(len(a), len(b))
		if n == 0 {
			return fmt.Errorf("determinism check: repetition %d shares no complete batch with repetition 1", i+1)
		}
		for k := 0; k < n; k++ {
			if a[k] != b[k] {
				return fmt.Errorf("determinism check: batch %d differs between repetitions 1 and %d (%#x vs %#x)", k, i+1, a[k], b[k])
			}
		}
	}
	return nil
}

func statOf(unit string, value float64, perRepValues []float64, n int) stat {
	lo, hi := minMax(perRepValues)
	return stat{Value: value, Unit: unit, Lo: lo, Hi: hi, N: n}
}

// rateMedian is the median of a per-sample rate over rate samples.
func rateMedian(samples []rateSample, f func(rateSample) float64) float64 {
	xs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.wallNs > 0 {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

func pktsPerS(s rateSample) float64 { return float64(s.pkts) / (float64(s.wallNs) / 1e9) }
func mbps(s rateSample) float64     { return float64(s.bytes) * 8 / 1e6 / (float64(s.wallNs) / 1e9) }

// endToEndStats turns untraced repetitions into the end-to-end metrics.
// Rates and latencies pool the samples of all repetitions and report the
// median (a percentile for latency); costs per packet are the median of the
// per-repetition quotients.
func endToEndStats(reps []*repetition, moreSetups []float64) map[string]stat {
	var rates []rateSample
	var lat []float64
	for _, r := range reps {
		rates = append(rates, r.rates...)
		lat = append(lat, r.latUs...)
	}
	out := map[string]stat{}
	each := func(f func(*repetition) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}

	setups := append(each(func(r *repetition) float64 { return r.setupS }), moreSetups...)
	// Single set-ups scatter widely (wake-up luck); what can be compared
	// between runs is a median, so the range is that of three group medians.
	third := (len(setups) + 2) / 3
	groups := []float64{median(setups[:third]), median(setups[third:min(2*third, len(setups))]), median(setups[min(2*third, len(setups)):])}
	if len(setups) < 3 {
		groups = setups
	}
	out["setup_s"] = statOf("s", median(setups), groups, len(setups))

	out["host_pkts_per_s"] = statOf("packets/s", rateMedian(rates, pktsPerS),
		each(func(r *repetition) float64 { return rateMedian(r.rates, pktsPerS) }), len(rates))
	out["host_mbps"] = statOf("Mbit/s", rateMedian(rates, mbps),
		each(func(r *repetition) float64 { return rateMedian(r.rates, mbps) }), len(rates))

	perPkt := func(unit string, f func(*repetition) float64) stat {
		xs := each(func(r *repetition) float64 { return f(r) / float64(r.pkts) })
		return statOf(unit, median(xs), xs, len(xs))
	}
	out["cpu_us_per_pkt"] = perPkt("us", func(r *repetition) float64 { return float64(r.cpu) / 1e3 })
	out["allocs_per_pkt"] = perPkt("allocs", func(r *repetition) float64 { return float64(r.mallocs) })
	out["alloc_bytes_per_pkt"] = perPkt("B", func(r *repetition) float64 { return float64(r.allocBytes) })

	sort.Float64s(lat)
	for _, p := range []struct {
		name string
		want float64
	}{{"wall_p50_us", 50}, {"wall_p90_us", 90}} {
		used := supportedPercentile(len(lat), p.want)
		xs := each(func(r *repetition) float64 { v, _ := percentileOf(r.latUs, used); return v })
		out[p.name] = statOf("us", percentile(lat, used), xs, len(lat))
	}
	return out
}
