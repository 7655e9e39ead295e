package cryptocore_test

import (
	"reflect"
	"testing"

	"mccp/internal/crossbar"
	"mccp/internal/cryptocore"
	"mccp/internal/cuisa"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// taskRun is what every path must reproduce of one task on one core: each
// acceptance's (cycle, instruction), the controller's instruction count, the
// FIFO counters, the output and the result.
type taskRun struct {
	accepts  []acceptRec
	executed uint64
	fifo     [4]uint64
	out      []byte
	res      cryptocore.Result
}

type acceptRec struct {
	at sim.Time
	in cuisa.Instr
}

// paths records how each acceptance of a run was taken: the engine cycle
// it was traced at (behind the acceptance for the instructions a run ahead
// took) and whether a periodic step settled it.
type paths struct {
	tracedAt []sim.Time
	settled  []bool
}

// runTask runs frame f on a fresh core, under Compat or not, unsliced (slice
// 0) or in RunUntil slices of slice cycles, the first ending first cycles
// after the start. upload delivers the input (pushFrame when nil).
func runTask(t *testing.T, f radio.Frame, compat bool, first, slice sim.Time, upload func(*sim.Engine, *cryptocore.Core)) (r taskRun, p paths) {
	t.Helper()
	eng, c := newTestCore(make([]byte, 16))
	eng.Compat = compat
	// A periodic step counts its instructions into Settled before it traces
	// the first of them.
	var counted, left uint64
	c.Unit.Trace = func(now sim.Time, in cuisa.Instr) {
		r.accepts = append(r.accepts, acceptRec{now, in})
		p.tracedAt = append(p.tracedAt, eng.Now())
		if s := c.Unit.Settled; s != counted {
			left, counted = s-counted, s
		}
		p.settled = append(p.settled, left > 0)
		left -= min(left, 1)
	}
	if upload == nil {
		pushFrame(c, f)
	} else {
		upload(eng, c)
	}
	done := false
	c.Start(f.Task, func(res cryptocore.Result) { r.res, done = res, true })
	if slice == 0 {
		eng.Run()
	}
	for d := eng.Now() + first; slice > 0 && eng.Pending() > 0; d += slice {
		eng.RunUntil(d)
		// Nothing may be accepted past the horizon: the caller may act
		// between slices (push input, switch to Compat).
		if n := len(r.accepts); n > 0 && r.accepts[n-1].at > d {
			t.Fatalf("%v: RunUntil(%d) returned with %v accepted at cycle %d", f.Task.Mode, d, r.accepts[n-1].in, r.accepts[n-1].at)
		}
	}
	if !done {
		t.Fatalf("task %v did not complete", f.Task.Mode)
	}
	r.executed, r.out = c.CPU.Executed, drain(c)
	r.fifo = [4]uint64{c.In.Pushed, c.In.Popped, c.Out.Pushed, c.Out.Popped}
	return r, p
}

// ranAhead counts the acceptances a run ahead took.
func ranAhead(accepts []acceptRec, tracedAt []sim.Time) (n int) {
	for i, a := range accepts {
		if a.at > tracedAt[i] {
			n++
		}
	}
	return n
}

// stretches counts the runs of settled acceptances and the acceptances in
// them.
func stretches(settled []bool) (runs, n int) {
	for i, s := range settled {
		if s {
			n++
			if i == 0 || !settled[i-1] {
				runs++
			}
		}
	}
	return runs, n
}

// TestRunAheadSlicedAtEveryOffset cuts a GCM and a one-core CCM encryption
// into RunUntil slices ending at every cycle offset of a loop iteration in
// turn. Slices one iteration long stop a run ahead by the horizon before
// each instruction of the body; slices of three and five iterations let it
// settle a stretch that the horizon then cuts short. Every run must equal
// the unsliced one, which must equal the reference path's.
func TestRunAheadSlicedAtEveryOffset(t *testing.T) {
	gcm, err := radio.FrameGCMEnc(make([]byte, 12), make([]byte, 20), make([]byte, 16*24))
	if err != nil {
		t.Fatal(err)
	}
	ccm, err := radio.FrameCCMEnc(make([]byte, 13), make([]byte, 20), make([]byte, 16*24), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []radio.Frame{gcm, ccm} {
		whole, p := runTask(t, f, false, 0, 0, nil)
		if ref, _ := runTask(t, f, true, 0, 0, nil); !reflect.DeepEqual(whole, ref) {
			t.Fatalf("%v: fast path differs from the reference path", f.Task.Mode)
		}
		if n := ranAhead(whole.accepts, p.tracedAt); n < len(whole.accepts)/2 {
			t.Fatalf("%v: only %d of %d acceptances ran ahead", f.Task.Mode, n, len(whole.accepts))
		}
		runs, settled := stretches(p.settled)
		if settled == 0 {
			t.Fatalf("%v: no acceptance was settled", f.Task.Mode)
		}
		// The loop's period: from a mid-loop acceptance to the next of the
		// same instruction (no instruction repeats within these bodies).
		mid := whole.accepts[len(whole.accepts)/2]
		var period sim.Time
		for _, a := range whole.accepts[len(whole.accepts)/2+1:] {
			if a.in == mid.in {
				period = a.at - mid.at
				break
			}
		}
		if period == 0 {
			t.Fatalf("%v: no loop period found", f.Task.Mode)
		}
		for _, iters := range []sim.Time{1, 3, 5} {
			for first := sim.Time(1); first <= period; first++ {
				got, gp := runTask(t, f, false, first, iters*period, nil)
				if !reflect.DeepEqual(got, whole) {
					t.Fatalf("%v: slices of %d cycles, the first %d long, differ from the unsliced run", f.Task.Mode, iters*period, first)
				}
				// The input is all stored and the output FIFO never fills,
				// so a stretch ends before the loop does only at the horizon,
				// and the loop then settles again in another stretch.
				if r, _ := stretches(gp.settled); iters > 1 && r <= runs {
					t.Fatalf("%v: in slices of %d iterations, the first %d cycles long, no settled stretch was cut by the horizon", f.Task.Mode, iters, first)
				}
			}
		}
	}
}

// TestRunAheadResumesBehindTrailingUpload uploads a 64-block GCM packet
// through the Cross Bar while another job keeps taking the bar for 1500
// cycles between its 64-word segments, so the loop runs out of input: a run
// ahead stops before a LOAD with no block stored, the LOAD waits on the
// event path, and a later run ahead picks the loop up again. Fast, sliced
// and reference runs must agree.
func TestRunAheadResumesBehindTrailingUpload(t *testing.T) {
	f, err := radio.FrameGCMEnc(make([]byte, 12), nil, make([]byte, 16*64))
	if err != nil {
		t.Fatal(err)
	}
	upload := func(eng *sim.Engine, c *cryptocore.Core) {
		xb := crossbar.New(eng)
		var words []uint32
		for _, b := range f.In {
			for i := 0; i < 4; i++ {
				words = append(words, b.Word(i))
			}
		}
		xb.WriteFIFO(c.In, words, func() {})
		left := 6
		var hog func(done func())
		hog = func(done func()) {
			if left--; left > 0 {
				xb.Submit(hog) // queues behind the upload's next segment
			}
			eng.After(1500, done)
		}
		xb.Submit(hog)
	}
	whole, p := runTask(t, f, false, 0, 0, upload)
	if ref, _ := runTask(t, f, true, 0, 0, upload); !reflect.DeepEqual(whole, ref) {
		t.Fatal("fast path differs from the reference path")
	}
	for _, slice := range []sim.Time{37, 500} {
		if got, _ := runTask(t, f, false, slice, slice, upload); !reflect.DeepEqual(got, whole) {
			t.Fatalf("slices of %d cycles differ from the unsliced run", slice)
		}
	}
	// A LOAD taken at the clock right after a run ahead, with more running
	// ahead later: the run stopped for want of a block and resumed. In one
	// such run ahead a settled stretch went up to the missing block.
	resumed, settled := 0, 0
	for i := 1; i < len(whole.accepts); i++ {
		a := whole.accepts[i]
		if a.in.Op() == cuisa.OpLOAD && a.at == p.tracedAt[i] && whole.accepts[i-1].at > p.tracedAt[i-1] &&
			ranAhead(whole.accepts[i:], p.tracedAt[i:]) > 0 {
			resumed++
			for j := i - 1; j >= 0 && whole.accepts[j].at > p.tracedAt[j]; j-- {
				if p.settled[j] {
					settled++
					break
				}
			}
		}
	}
	if resumed == 0 {
		t.Error("no run ahead stopped at a missing block and resumed")
	}
	if settled == 0 {
		t.Error("no settled stretch stopped at a missing block")
	}
}
