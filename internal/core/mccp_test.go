package core_test

import (
	"testing"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/cuisa"
	"mccp/internal/firmware"
	"mccp/internal/sim"
)

func newDev(cfg core.Config) (*sim.Engine, *core.MCCP) {
	eng := sim.NewEngine()
	dev := core.New(eng, cfg)
	eng.Run()
	return eng, dev
}

func TestOpenCloseLifecycle(t *testing.T) {
	eng, dev := newDev(core.Config{})
	dev.KeyMem.Store(1, make([]byte, 16))
	var ch int
	dev.Open(core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 1, func(c int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ch = c
	})
	eng.Run()
	if ch == 0 {
		t.Fatal("no channel ID")
	}
	// OPEN consumes scheduler cycles (the instruction is not free).
	if eng.Now() < core.CostOpen {
		t.Errorf("OPEN completed in %d cycles, want >= %d", eng.Now(), core.CostOpen)
	}
	dev.Close(ch, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	dev.Close(ch, func(err error) {
		if err != core.ErrBadChannel {
			t.Errorf("double close: %v", err)
		}
	})
	eng.Run()
}

// TestProtocolFullDance drives the six-instruction protocol by hand, the
// way the paper's communication controller does, without the radio layer.
func TestProtocolFullDance(t *testing.T) {
	eng, dev := newDev(core.Config{})
	dev.KeyMem.Store(1, make([]byte, 16))

	irqs := 0
	dev.OnDataAvailable = func() { irqs++ }

	var ch int
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR}, 1, func(c int, err error) { ch = c })
	eng.Run()

	// ENCRYPT: 32 bytes of CTR data.
	var asg core.Assignment
	dev.Submit(ch, true, 0, 32, func(a core.Assignment, err error) {
		if err != nil {
			t.Fatal(err)
		}
		asg = a
	})
	eng.Run()
	if len(asg.CoreIDs) != 1 || asg.Tasks[0].Mode != firmware.ModeCTR {
		t.Fatalf("assignment = %+v", asg)
	}

	// Upload: ICB + 2 data blocks, then the upload-side TRANSFER_DONE.
	words := make([]uint32, 12)
	dev.WriteToCore(asg.CoreIDs[0], words, func() {
		dev.TransferDone(asg.ReqID, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	})
	eng.Run()
	if irqs != 1 {
		t.Fatalf("Data Available IRQs = %d, want 1", irqs)
	}

	// RETRIEVE_DATA and drain.
	var ret core.Retrieval
	dev.RetrieveData(func(r core.Retrieval, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ret = r
	})
	eng.Run()
	if ret.ReqID != asg.ReqID || ret.Code != firmware.ResultOK || ret.OutWords != 8 {
		t.Fatalf("retrieval = %+v", ret)
	}
	if ret.Latency == 0 {
		t.Error("zero latency recorded")
	}
	var got []uint32
	dev.ReadFromCore(ret.OutCore, ret.OutWords, func(ws []uint32) { got = ws })
	eng.Run()
	if len(got) != 8 {
		t.Fatalf("drained %d words", len(got))
	}
	// Final TRANSFER_DONE frees the core.
	dev.TransferDone(asg.ReqID, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if dev.Cores[asg.CoreIDs[0]].Busy() {
		t.Error("core still busy after final TRANSFER_DONE")
	}
	// The request is retired: another TRANSFER_DONE errors.
	dev.TransferDone(asg.ReqID, func(err error) {
		if err == nil {
			t.Error("TRANSFER_DONE on retired request succeeded")
		}
	})
	eng.Run()
}

func TestCoresHeldUntilTransferDone(t *testing.T) {
	// The paper's protocol holds a core from ENCRYPT until the final
	// TRANSFER_DONE: a 1-core device must reject a second submit while the
	// first request's data has not been collected.
	eng, dev := newDev(core.Config{Cores: 1})
	dev.KeyMem.Store(1, make([]byte, 16))
	var ch int
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR}, 1, func(c int, err error) { ch = c })
	eng.Run()

	var first core.Assignment
	dev.Submit(ch, true, 0, 16, func(a core.Assignment, err error) {
		if err != nil {
			t.Fatal(err)
		}
		first = a
	})
	eng.Run()
	dev.WriteToCore(0, make([]uint32, 8), func() {
		dev.TransferDone(first.ReqID, func(error) {})
	})
	eng.Run() // task completes, sits in the done queue

	dev.Submit(ch, true, 0, 16, func(_ core.Assignment, err error) {
		if err != core.ErrNoResources {
			t.Errorf("second submit: %v, want ErrNoResources", err)
		}
	})
	eng.Run()

	// Drain and release, then the core is reusable.
	dev.RetrieveData(func(r core.Retrieval, err error) {
		dev.ReadFromCore(r.OutCore, r.OutWords, func([]uint32) {
			dev.TransferDone(r.ReqID, func(error) {})
		})
	})
	eng.Run()
	dev.Submit(ch, true, 0, 16, func(_ core.Assignment, err error) {
		if err != nil {
			t.Errorf("post-release submit: %v", err)
		}
	})
	eng.Run()
}

// TestBoundedQueueSheds: with MaxQueue set, saturating submissions split
// into the three distinct outcomes — dispatched, queued, shed — and the
// counters agree with the callbacks.
func TestBoundedQueueSheds(t *testing.T) {
	eng, dev := newDev(core.Config{Cores: 1, QueueRequests: true, MaxQueue: 2})
	dev.KeyMem.Store(1, make([]byte, 16))
	var ch int
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR}, 1, func(c int, _ error) { ch = c })
	eng.Run()

	shed, ok := 0, 0
	serve := func(a core.Assignment, err error) {
		switch err {
		case nil:
			ok++
			dev.WriteToCore(a.CoreIDs[0], make([]uint32, 8), func() {
				dev.TransferDone(a.ReqID, func(error) {})
			})
		case core.ErrQueueFull:
			shed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	dev.OnDataAvailable = func() {
		dev.RetrieveData(func(r core.Retrieval, err error) {
			if err != nil {
				return
			}
			dev.ReadFromCore(r.OutCore, r.OutWords, func([]uint32) {
				dev.TransferDone(r.ReqID, func(error) {})
			})
		})
	}
	// Six submissions against one core with a 2-deep queue: 1 dispatches,
	// 2 queue, 3 shed (the queued ones drain as the core frees).
	for i := 0; i < 6; i++ {
		dev.Submit(ch, true, 0, 16, serve)
	}
	eng.Run()
	if ok != 3 || shed != 3 {
		t.Fatalf("ok=%d shed=%d, want 3/3", ok, shed)
	}
	if dev.Stats.Queued != 2 || dev.Stats.Shed != 3 || dev.Stats.Rejected != 0 {
		t.Fatalf("stats = %+v, want Queued=2 Shed=3 Rejected=0", dev.Stats)
	}
}

func TestPriorityQueueOrdering(t *testing.T) {
	// With queueing enabled and the device saturated, a high-priority
	// channel's request dispatches before earlier low-priority ones.
	eng, dev := newDev(core.Config{Cores: 1, QueueRequests: true})
	dev.KeyMem.Store(1, make([]byte, 16))
	dev.KeyMem.Store(2, make([]byte, 16))
	var lowCh, highCh int
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR, Priority: 0}, 1, func(c int, _ error) { lowCh = c })
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR, Priority: 5}, 2, func(c int, _ error) { highCh = c })
	eng.Run()

	var order []string
	serve := func(name string) func(core.Assignment, error) {
		return func(a core.Assignment, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			order = append(order, name)
			dev.WriteToCore(a.CoreIDs[0], make([]uint32, 8), func() {
				dev.TransferDone(a.ReqID, func(error) {})
			})
		}
	}
	// Occupy the core, then queue low before high.
	dev.Submit(lowCh, true, 0, 16, serve("first"))
	dev.Submit(lowCh, true, 0, 16, serve("low"))
	dev.Submit(highCh, true, 0, 16, serve("high"))

	drain := func() {
		dev.RetrieveData(func(r core.Retrieval, err error) {
			if err != nil {
				return
			}
			dev.ReadFromCore(r.OutCore, r.OutWords, func([]uint32) {
				dev.TransferDone(r.ReqID, func(error) {})
			})
		})
	}
	dev.OnDataAvailable = drain
	eng.Run()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("dispatch order = %v, want [first high low]", order)
	}
}

// TestSameCycleResultStrobesQueueByCore: two cores whose firmware strobes
// its result in the same cycle must enter the done queue the same way
// whichever core's events the engine happens to run first that cycle — in
// fixed core priority, highest first.
func TestSameCycleResultStrobesQueueByCore(t *testing.T) {
	for _, fedFirst := range []int{0, 1} {
		eng, dev := newDev(core.Config{})
		dev.KeyMem.Store(1, make([]byte, 16))
		var ch int
		dev.Open(core.Suite{Family: cryptocore.FamilyCTR}, 1, func(c int, _ error) { ch = c })
		eng.Run()
		reqOf := map[int]int{} // core -> request
		for i := 0; i < 2; i++ {
			dev.Submit(ch, true, 0, 32, func(a core.Assignment, err error) {
				if err != nil {
					t.Fatal(err)
				}
				reqOf[a.CoreIDs[0]] = a.ReqID
			})
		}
		eng.Run() // both firmwares now wait on their empty input FIFOs
		// Feed both FIFOs in one cycle, so the cores run in lock-step from
		// there; fedFirst's events lead every cycle they share. (A fixed
		// cycle: where a drained engine's clock stands while a controller
		// waits mid-task is not the same on the fast path and under Compat.)
		const at = 1000
		if eng.Now() >= at {
			t.Fatalf("cores blocked only at cycle %d", eng.Now())
		}
		var lastIssue [2]sim.Time
		feed := func(c int) func() {
			dev.Cores[c].Unit.Trace = func(now sim.Time, _ cuisa.Instr) { lastIssue[c] = now }
			return func() {
				for k := 0; k < 12; k++ { // ICB + 2 data blocks
					dev.Cores[c].In.TryPush(0)
				}
			}
		}
		eng.At(at, feed(fedFirst))
		eng.At(at, feed(1-fedFirst))
		eng.Run()
		if len(reqOf) != 2 || lastIssue[0] != lastIssue[1] || lastIssue[0] <= at {
			t.Fatalf("fed %d first: requests %v, last unit instructions at %v: cores not in lock-step", fedFirst, reqOf, lastIssue)
		}
		for _, wantCore := range []int{1, 0} {
			dev.RetrieveData(func(r core.Retrieval, err error) {
				if err != nil || r.OutCore != wantCore || r.ReqID != reqOf[wantCore] {
					t.Errorf("fed %d first: retrieved %+v (err %v), want core %d's request %d", fedFirst, r, err, wantCore, reqOf[wantCore])
				}
			})
			eng.Run()
		}
	}
}
