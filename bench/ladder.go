package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"mccp/internal/aes"
	"mccp/internal/arrivals"
	"mccp/internal/bits"
	"mccp/internal/bufpool"
	"mccp/internal/crossbar"
	"mccp/internal/cryptounit"
	"mccp/internal/cuisa"
	"mccp/internal/ghash"
	"mccp/internal/picoblaze"
	"mccp/internal/qos"
	"mccp/internal/radio"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// The ladder: one isolated micro-run per layer, through the layer's
// exported API with stubs for its neighbours. A rung's figure is the unit
// cost that, multiplied by the exact per-packet count of the traced run,
// gives the layer's share of a workload's time. Rungs are short (a traced
// run spends a third of its -seconds on all of them), have no bound, and
// are there to say where to look, not to be compared across machines.

// rung is one ladder measurement; weight is its share of the ladder's time.
// run writes the figure under name (rungLoopback adds a second one).
type rung struct {
	name   string
	weight int
	run    func(d time.Duration, seed uint64, out map[string]float64) error
}

// one adapts a rung that yields a single figure.
func one(name string, weight int, f func(d time.Duration, seed uint64) (float64, error)) rung {
	return rung{name, weight, func(d time.Duration, seed uint64, out map[string]float64) error {
		v, err := f(d, seed)
		out[name] = v
		return err
	}}
}

// spin calls op(n), which performs n operations, until d has passed and
// returns operations per second.
func spin(d time.Duration, n int, op func(n int)) float64 {
	var ops int
	start := time.Now()
	for time.Since(start) < d {
		op(n)
		ops += n
	}
	return float64(ops) / time.Since(start).Seconds()
}

// nsPer converts a rate to nanoseconds per operation.
func nsPer(rate float64) float64 { return 1e9 / rate }

var rungs = []rung{
	one("sim.rung_events_per_s", 1, rungSimEvents),
	one("sim.rung_fifo_words_per_s", 1, rungSimFIFO),
	one("picoblaze.rung_instr_per_s", 1, rungPicoblaze),
	one("cryptounit.rung_issues_per_s", 1, rungCryptoUnit),
	one("aes.rung_ns_per_block", 1, rungAES),
	one("ghash.rung_ns_per_mul", 1, rungGHASH),
	one("crossbar.rung_words_per_s", 1, rungCrossbar),
	one("radio.rung_frame_ns.64", 1, rungFrame(64)),
	one("radio.rung_frame_ns.2048", 1, rungFrame(2048)),
	one("qos.rung_ns_per_pkt.strict-priority", 1, rungShaper(qos.DrainStrict)),
	one("qos.rung_ns_per_pkt.weighted-fair", 1, rungShaper(qos.DrainWeightedFair)),
	one("qos.rung_ns_per_pkt.drr-bytes", 1, rungShaper(qos.DrainDRRBytes)),
	one("arrivals.rung_gaps_per_s.poisson", 1, rungArrivals(arrivals.ProcPoisson)),
	one("arrivals.rung_gaps_per_s.onoff", 1, rungArrivals(arrivals.ProcOnOff)),
	one("server.rung_encode_ns_per_frame.64", 1, rungEncode(64)),
	one("server.rung_encode_ns_per_frame.2048", 1, rungEncode(2048)),
	one("bench.gen_allocs_per_pkt", 1, rungGenerator),
	{"server.rung_loopback_req_per_s", 4, rungLoopback},
	one("cluster.rung_pkts_per_s.1shard", 3, rungOneShard),
	one("obs.trace_on_overhead_pct", 8, rungObsOverhead),
}

// runLadder runs every rung within total and returns the figures by name.
func runLadder(total time.Duration, seed uint64) (map[string]float64, error) {
	weights := 0
	for _, r := range rungs {
		weights += r.weight
	}
	out := map[string]float64{}
	for _, r := range rungs {
		runtime.GC()
		if err := r.run(total*time.Duration(r.weight)/time.Duration(weights), seed, out); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return out, nil
}

// rungSimEvents: 64 tickers rescheduling themselves, three short delays
// (timing wheel) for every long one (heap), as the device's event mix has.
func rungSimEvents(d time.Duration, _ uint64) (float64, error) {
	eng := sim.NewEngine()
	for i := 0; i < 64; i++ {
		var t *sim.Ticker
		fired := i
		t = eng.NewTicker(func() {
			if fired++; fired%4 == 0 {
				t.After(sim.Time(1000 + i))
			} else {
				t.After(sim.Time(1 + i%61))
			}
		})
		t.After(sim.Time(1 + i))
	}
	return spin(d, 1<<14, func(n int) {
		for k := 0; k < n; k++ {
			eng.Step()
		}
	}), nil
}

func rungSimFIFO(d time.Duration, _ uint64) (float64, error) {
	f := sim.NewWordFIFO(sim.NewEngine(), 512)
	return spin(d, 512, func(n int) {
		for k := 0; k < n; k++ {
			f.TryPush(uint32(k))
		}
		for k := 0; k < n; k++ {
			f.TryPop()
		}
	}), nil
}

type nullBus struct{}

func (nullBus) In(uint8) uint8              { return 0 }
func (nullBus) Out(_, _ uint8, done func()) { done() }

// rungPicoblaze: a straight-line ALU loop with no I/O, the batched
// fast path at its best.
func rungPicoblaze(d time.Duration, _ uint64) (float64, error) {
	prog, err := picoblaze.Assemble(`
loop:	ADD s0, 01
	XOR s1, s0
	SL0 s2
	SUB s3, 01
	COMPARE s0, s3
	ADDCY s4, s1
	JUMP loop
`)
	if err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	cpu := picoblaze.New(eng, nullBus{}, prog)
	cpu.Start()
	start, from := time.Now(), cpu.Executed
	for time.Since(start) < d {
		eng.RunUntil(eng.Now() + 1<<16)
	}
	cpu.Stop()
	return float64(cpu.Executed-from) / time.Since(start).Seconds(), nil
}

// rungCryptoUnit: back-to-back simple instructions (XOR, INC), each issued
// from the previous one's done strobe as the controller does.
func rungCryptoUnit(d time.Duration, _ uint64) (float64, error) {
	eng := sim.NewEngine()
	u := cryptounit.New(eng, sim.NewWordFIFO(eng, 512), sim.NewWordFIFO(eng, 512))
	instr := [2]cuisa.Instr{cuisa.Xor(0, 1), cuisa.Inc(1, 1)}
	var left, issued int
	u.OnDone = func() {
		if left > 0 {
			left--
			issued++
			u.Issue(instr[issued&1], nil)
		}
	}
	return spin(d, 1<<12, func(n int) {
		left = n - 1
		issued++
		u.Issue(instr[0], nil)
		eng.Run()
	}), nil
}

// rungAES and rungGHASH drive the functional engines the way the
// Cryptographic Unit does: Start on SAES/SGFM, Collect on FAES/FGFM.
func rungAES(d time.Duration, seed uint64) (float64, error) {
	c := aes.NewCore32()
	c.LoadKeys(aes.Key128, aes.ExpandKey(newRNG(seed).bytes(16)))
	var b bits.Block
	rate := spin(d, 1<<10, func(n int) {
		for k := 0; k < n; k++ {
			c.Start(0, b)
			b = c.Collect()
		}
	})
	sink ^= uint64(b[0])
	return nsPer(rate), nil
}

func rungGHASH(d time.Duration, seed uint64) (float64, error) {
	var h, x bits.Block
	newRNG(seed).fill(h[:])
	x[15] = 1
	c := ghash.NewCore()
	c.LoadH(h)
	rate := spin(d, 1<<10, func(n int) {
		for k := 0; k < n; k++ {
			c.Start(0, x)
			x = c.Collect()
		}
	})
	sink ^= uint64(x[0])
	return nsPer(rate), nil
}

// sink keeps pure results alive.
var sink uint64

// rungCrossbar: one packet FIFO's worth of words written and read back in
// bursts, as the communication controller moves a 2 KB packet.
func rungCrossbar(d time.Duration, _ uint64) (float64, error) {
	eng := sim.NewEngine()
	xb := crossbar.New(eng)
	fifo := sim.NewWordFIFO(eng, 512)
	words := make([]uint32, 512)
	var left int
	var cycle func()
	readDone := func(out []uint32) {
		bufpool.PutWords(out)
		if left--; left > 0 {
			cycle()
		}
	}
	writeDone := func() { xb.ReadFIFO(fifo, len(words), readDone) }
	cycle = func() { xb.WriteFIFO(fifo, words, writeDone) }
	return spin(d, 64*2*len(words), func(int) {
		left = 64
		cycle()
		eng.Run()
	}), nil
}

func rungFrame(size int) func(time.Duration, uint64) (float64, error) {
	return func(d time.Duration, seed uint64) (float64, error) {
		r := newRNG(seed)
		nonce, payload := r.bytes(12), r.bytes(size)
		var ferr error
		rate := spin(d, 256, func(n int) {
			for k := 0; k < n; k++ {
				f, err := radio.FrameGCMEnc(nonce, nil, payload)
				if err != nil {
					ferr = err
					return
				}
				bufpool.PutBlocks(f.In)
			}
		})
		return nsPer(rate), ferr
	}
}

// stubTarget completes every packet a fixed 200 cycles after submission.
type stubTarget struct {
	eng *sim.Engine
	out []byte
}

func (t *stubTarget) Encrypt(_ int, _, _, _ []byte, cb func([]byte, error)) {
	t.eng.After(200, func() { cb(t.out, nil) })
}

func (t *stubTarget) Decrypt(_ int, _, _, _, _ []byte, cb func([]byte, error)) {
	t.eng.After(200, func() { cb(t.out, nil) })
}

// rungShaper: admission + drain + completion accounting per packet, four
// classes round-robin, 64 packets outstanding against a capacity of 8.
func rungShaper(drain string) func(time.Duration, uint64) (float64, error) {
	return func(d time.Duration, _ uint64) (float64, error) {
		eng := sim.NewEngine()
		sh := qos.NewShaper(eng, &stubTarget{eng: eng, out: make([]byte, 16)}, qos.Config{Capacity: 8, QueueDepth: 64, Drain: drain})
		payloads := [qos.NumClasses][]byte{make([]byte, 2048), make([]byte, 512), make([]byte, 1024), make([]byte, 256)}
		nonce := make([]byte, 12)
		var left, next int
		var failed error
		var submit func()
		done := func(_ []byte, err error) {
			if err != nil {
				failed = err
			}
			submit()
		}
		submit = func() {
			if left == 0 {
				return
			}
			left--
			next++
			c := qos.Class(next % qos.NumClasses)
			sh.Encrypt(c, 0, nonce, nil, payloads[c], done)
		}
		rate := spin(d, 1<<12, func(n int) {
			left = n
			for k := 0; k < 64; k++ {
				submit()
			}
			eng.Run()
		})
		return nsPer(rate), failed
	}
}

func rungArrivals(proc string) func(time.Duration, uint64) (float64, error) {
	return func(d time.Duration, seed uint64) (float64, error) {
		mk, err := arrivals.ByName(proc, 1000)
		if err != nil {
			return 0, err
		}
		p, r := mk(), arrivals.NewRand(seed)
		var acc sim.Time
		rate := spin(d, 1<<12, func(n int) {
			for k := 0; k < n; k++ {
				acc += p.Gap(r)
			}
		})
		sink ^= uint64(acc)
		return rate, nil
	}
}

// discardConn swallows writes and reads as closed; the encode rung and
// the generator rung run a server.Client against it.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

func rungEncode(size int) func(time.Duration, uint64) (float64, error) {
	return func(d time.Duration, seed uint64) (float64, error) {
		c := server.NewClient(discardConn{})
		r := newRNG(seed)
		nonce, payload := r.bytes(12), r.bytes(size)
		var serr error
		rate := spin(d, 256, func(n int) {
			for k := 0; k < n; k++ {
				if _, err := c.SendEncrypt(1, nonce, nil, payload); err != nil {
					serr = err
				}
			}
		})
		return nsPer(rate), serr
	}
}

// rungGenerator counts the allocations of the wire generator's own send
// path (pick the packet, stamp the nonce, SendEncrypt, record the instant)
// with nothing behind it. It must stay near zero for allocs_per_pkt on the
// wire workloads to be the program's.
func rungGenerator(d time.Duration, seed uint64) (float64, error) {
	r := newRNG(seed)
	wc := &wireConn{c: server.NewClient(discardConn{}), pool: payloadPool(r, 64, 256)}
	for j := 0; j < wireSessionsPerConn; j++ {
		s := wireSessionFor(true, j, r)
		s.id = uint64(j + 1)
		wc.sess = append(wc.sess, s)
	}
	const n = 1 << 14
	wc.latUs = make([]float64, 0, n)
	send := func() error {
		wc.latUs = wc.latUs[:0]
		begin := time.Now()
		for k := uint64(0); k < n; k++ {
			s, nonce, payload := wc.packet(k)
			if _, err := wc.c.SendEncrypt(s.id, nonce, nil, payload); err != nil {
				return err
			}
			wc.latUs = append(wc.latUs, float64(time.Since(begin))/1e3)
		}
		return nil
	}
	if err := send(); err != nil { // grows the client's buffers once
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := send(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// tapConn records every byte read from the connection, so a genuine
// response frame can be lifted off the wire for the decode rung.
type tapConn struct {
	net.Conn
	read bytes.Buffer
}

func (t *tapConn) Read(b []byte) (int, error) {
	n, err := t.Conn.Read(b)
	t.read.Write(b[:n])
	return n, err
}

// rungLoopback runs wire-sat's closed loop over server.Loopback (net.Pipe:
// no sockets, no kernel), the server's capacity with the transport taken
// away; the gap to wire-sat is server.tcp_share. It then times
// DecodeResponse on an ENCRYPT response captured from its first connection.
func rungLoopback(d time.Duration, seed uint64, out map[string]float64) error {
	srv, err := server.New(wireServerConfig(seed))
	if err != nil {
		return err
	}
	lb := server.NewLoopback()
	var tap *tapConn
	lb.WrapClient = func(nc net.Conn) net.Conn {
		if tap == nil {
			tap = &tapConn{Conn: nc}
			return tap
		}
		return nc
	}
	srv.Serve(lb)
	rep := &repetition{layer: map[string]float64{}}
	rig, err := newWireRig(env{seed: seed, budget: d * 3 / 4}, rep, false, srv, lb.Dial)
	if err != nil {
		srv.Close()
		return err
	}
	defer rig.close()
	frames := append([]byte(nil), tap.read.Bytes()...) // the warm-up's answers
	if err := rig.measure(rep); err != nil {
		return err
	}
	out["server.rung_loopback_req_per_s"] = rateMedian(rep.rates, pktsPerS)
	out["server.rung_decode_ns_per_frame"], err = rungDecode(d/4, frames)
	return err
}

// rungDecode finds the first ENCRYPT response among the captured frames
// (u32 big-endian length, then the body) and times DecodeResponse on it.
func rungDecode(d time.Duration, frames []byte) (float64, error) {
	for len(frames) >= 4 {
		n := int(binary.BigEndian.Uint32(frames))
		if len(frames) < 4+n {
			break
		}
		body := frames[4 : 4+n]
		frames = frames[4+n:]
		if r, err := server.DecodeResponse(body); err != nil || r.Op != server.OpEncrypt {
			continue
		}
		var derr error
		rate := spin(d, 256, func(k int) {
			for ; k > 0; k-- {
				if _, err := server.DecodeResponse(body); err != nil {
					derr = err
				}
			}
		})
		return nsPer(rate), derr
	}
	return 0, fmt.Errorf("no ENCRYPT response among the captured frames")
}

// mixRate runs cluster-mix's loop for d on the given shard count (offered
// load scaled with it) and returns packets per wall second.
func mixRate(d time.Duration, seed uint64, shards int, obsTrace bool) (float64, error) {
	rep := &repetition{layer: map[string]float64{}}
	m, err := setupMix(env{seed: seed, budget: d}, rep, shards, obsTrace)
	if err != nil {
		return 0, err
	}
	defer m.close()
	m.obsTrace = false // the stage means belong to the traced repetition
	if err := m.measure(rep); err != nil {
		return 0, err
	}
	return rateMedian(rep.rates, pktsPerS), nil
}

func rungOneShard(d time.Duration, seed uint64) (float64, error) {
	return mixRate(d, seed, 1, false)
}

// rungObsOverhead: cluster-mix with the program's own lifecycle tracer
// (Config.Trace, sample rate 1) against the same loop with it off,
// alternating so drift hits both alike.
func rungObsOverhead(d time.Duration, seed uint64) (float64, error) {
	var off, on []float64
	for i := 0; i < 2; i++ {
		for _, traced := range []bool{false, true} {
			rate, err := mixRate(d/4, seed, mixShards, traced)
			if err != nil {
				return 0, err
			}
			if traced {
				on = append(on, rate)
			} else {
				off = append(off, rate)
			}
		}
	}
	return 100 * (median(off)/median(on) - 1), nil
}
