package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/server"
)

const (
	wireConns           = 2
	wireSessionsPerConn = 16
	// satPipeline ENCRYPTs go out back to back, then a FLUSH, then the
	// connection reads the satPipeline+1 answers.
	satPipeline = 32
	satPayload  = 64
	// openRatePerConn is wire-open's fixed schedule: 2 x 10 000 req/s,
	// about a third of what wire-sat sustains on two cores.
	openRatePerConn = 10_000
	// rateSlice is the width of the time slices the wire workloads'
	// throughput samples are counted over (two connections complete work
	// independently, so there is no common batch boundary to time).
	rateSlice = 100 * time.Millisecond
	// traceSample: a traced run records spans for one round (wire-sat) or
	// request (wire-open) in this many, which bounds the spans of a
	// 70 000 req/s run; the other workloads trace every call.
	traceSample = 8
)

// wireSession is one open wire session and the packets it carries.
type wireSession struct {
	id      uint64
	spec    server.OpenRequest
	payload int
	// nonce is a seeded prefix whose last eight bytes take the packet
	// counter; the session's own, because GCM and CCM nonces differ in
	// length and a shared buffer would let one's counter soil the other's
	// prefix.
	nonce []byte
}

// stamp returns the session's nonce for packet counter n.
func (s *wireSession) stamp(n uint64) []byte {
	stampNonce(s.nonce, n)
	return s.nonce
}

// wireServerConfig is mccpserver's defaults on two shards, with class
// queues deep enough that a full pipeline from both connections landing on
// one shard is queued, not shed.
func wireServerConfig(seed uint64) server.Config {
	return server.Config{
		Cluster: cluster.Config{
			Shards:        2,
			CoresPerShard: 4,
			Router:        cluster.RouterQoSAware,
			Policy:        "qos-priority",
			QueueRequests: true,
			Shape:         true,
			Seed:          seed,
			Shaper:        qos.Config{Capacity: 8, QueueDepth: 128},
		},
		BatchOps:      64,
		FlushInterval: 200 * time.Microsecond,
	}
}

// wireRig is an in-process server behind a transport, plus the client
// connections with their sessions opened and warmed.
type wireRig struct {
	env     env
	open    bool // wire-open (fixed schedule) rather than wire-sat
	srv     *server.Server
	conns   []*wireConn
	okTotal uint64 // OK answers every connection has seen, warm-up included
	refused uint64 // non-OK verdicts every connection has seen
}

// wireConn is one client connection; during the timed region it is owned
// by its own goroutine.
type wireConn struct {
	rig   *wireRig
	index int
	c     *server.Client
	sess  []*wireSession
	pool  [][]byte
	tr    *tracer
	// trBase is the timed region's begin on the tracer's clock; request
	// instants are kept relative to begin.
	trBase int64

	ok, attempted, failed int64
	refused               uint64 // non-OK verdicts among failed
	bytes                 int64
	latUs                 []float64 // per request, from due (open) or send (sat)
	lateUs                []float64 // wire-open: send instant minus due instant
	doneAt                []int64   // completion instants, ns since the region began
	doneN                 []int32   // requests completed at doneAt[i]
	err                   error
}

// dialer abstracts the transport: loopback TCP for the workloads, the
// in-memory server.Loopback for the ladder rung.
type dialer func() (net.Conn, error)

func setupWire(e env, rep *repetition, open bool) (instance, error) {
	srv, err := server.New(wireServerConfig(e.seed))
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen on loopback TCP: %w", err)
	}
	srv.Serve(ln)
	addr := ln.Addr().String()
	rig, err := newWireRig(e, rep, open, srv, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	if err != nil {
		srv.Close()
		return nil, err
	}
	return rig, nil
}

func newWireRig(e env, rep *repetition, open bool, srv *server.Server, dial dialer) (*wireRig, error) {
	rig := &wireRig{env: e, open: open, srv: srv}
	r := newRNG(e.seed).split(5)
	var openNs time.Duration
	for i := 0; i < wireConns; i++ {
		nc, err := dial()
		if err != nil {
			rig.closeConns()
			return nil, fmt.Errorf("dial: %w", err)
		}
		wc := &wireConn{rig: rig, index: i, c: server.NewClient(nc)}
		rig.conns = append(rig.conns, wc)
		wc.c.SetIOTimeout(30 * time.Second)
		specs := make([]server.OpenRequest, wireSessionsPerConn)
		for j := range specs {
			wc.sess = append(wc.sess, wireSessionFor(open, j, r))
			specs[j] = wc.sess[j].spec
		}
		t0 := time.Now()
		sp := e.tr.begin("server.OpenMany", 0, uint64(i))
		ids, err := wc.c.OpenMany(specs)
		e.tr.end(sp)
		openNs += time.Since(t0)
		if err != nil {
			rig.closeConns()
			return nil, fmt.Errorf("OPEN: %w", err)
		}
		for j, id := range ids {
			wc.sess[j].id = id
		}
		wc.pool = payloadPool(r.split(uint64(i)), 64, 256)
		// Warm-up: one verified ENCRYPT -> DECRYPT round trip per session.
		if err := wc.checkSessions(0); err != nil {
			rig.closeConns()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rep.layer["server.open_us_per_session"] = float64(openNs) / 1e3 / (wireConns * wireSessionsPerConn)
	return rig, nil
}

// wireSessionFor picks session j's suite. wire-sat: 64-byte data-class
// packets, GCM and CCM alternating. wire-open: 64-byte voice-class CCM and
// 256-byte data-class GCM alternating. No deadlines: nothing may expire.
func wireSessionFor(open bool, j int, r *rng) *wireSession {
	gcm := server.OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data, Weight: 1}
	ccm := server.OpenRequest{Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Class: qos.Data, Weight: 1}
	switch {
	case !open && j%2 == 0:
		return &wireSession{spec: gcm, payload: satPayload, nonce: r.bytes(12)}
	case !open:
		return &wireSession{spec: ccm, payload: satPayload, nonce: r.bytes(13)}
	case j%2 == 0:
		ccm.Class = qos.Voice
		return &wireSession{spec: ccm, payload: 64, nonce: r.bytes(13)}
	default:
		return &wireSession{spec: gcm, payload: 256, nonce: r.bytes(12)}
	}
}

// packet prepares request n of this connection: session, nonce, payload.
func (wc *wireConn) packet(n uint64) (*wireSession, []byte, []byte) {
	s := wc.sess[n%uint64(len(wc.sess))]
	return s, s.stamp(n), wc.pool[n%uint64(len(wc.pool))][:s.payload]
}

// checkSessions requires decrypt(encrypt(p)) = p on every session of the
// connection: all ENCRYPTs pipelined behind one FLUSH, then the DECRYPTs of
// their outputs behind another. The server generates the session keys, so
// the wire workloads cannot use the stdlib reference. round keeps the nonces
// of the warm-up, the final check and the timed packets apart.
func (wc *wireConn) checkSessions(round uint64) error {
	packet := func(j int) (nonce, payload []byte) {
		s := wc.sess[j]
		return s.stamp(1<<40 | round<<20 | uint64(j)), wc.pool[(int(round)+j)%len(wc.pool)][:s.payload]
	}
	// answers FLUSHes and returns a copy of each session's answer.
	answers := func(op string) ([][]byte, error) {
		if _, err := wc.c.SendFlush(); err != nil {
			return nil, err
		}
		outs := make([][]byte, len(wc.sess))
		for j := 0; j <= len(wc.sess); j++ { // the last one is the FLUSH ack
			r, err := wc.c.ReadResponse()
			if err == nil {
				err = r.Err()
			}
			if err != nil {
				return nil, fmt.Errorf("%s answer %d: %w", op, j, err)
			}
			if j < len(wc.sess) {
				outs[j] = append([]byte(nil), r.Out...)
				wc.rig.okTotal++
			}
		}
		return outs, nil
	}

	for j, s := range wc.sess {
		nonce, payload := packet(j)
		if _, err := wc.c.SendEncrypt(s.id, nonce, nil, payload); err != nil {
			return err
		}
	}
	sealed, err := answers("ENCRYPT")
	if err != nil {
		return err
	}
	for j, s := range wc.sess {
		if len(sealed[j]) != s.payload+s.spec.TagLen {
			return fmt.Errorf("session %d: ENCRYPT returned %d bytes", s.id, len(sealed[j]))
		}
		nonce, _ := packet(j)
		if _, err := wc.c.SendDecrypt(s.id, nonce, nil, sealed[j][:s.payload], sealed[j][s.payload:]); err != nil {
			return err
		}
	}
	plain, err := answers("DECRYPT")
	if err != nil {
		return err
	}
	for j, s := range wc.sess {
		if _, payload := packet(j); !bytes.Equal(plain[j], payload) {
			return fmt.Errorf("session %d: decrypt(encrypt(p)) != p", s.id)
		}
	}
	return nil
}

func (rig *wireRig) closeConns() {
	for _, wc := range rig.conns {
		wc.c.Close()
	}
}

func (rig *wireRig) close() {
	rig.closeConns()
	rig.srv.Close()
}

// answer books one ENCRYPT response.
func (wc *wireConn) answer(r server.Response, want uint64, s *wireSession) {
	switch {
	case r.Op != server.OpEncrypt || r.ReqID != want:
		wc.failed++
		wc.fail(fmt.Errorf("conn %d: got %v #%d, want ENCRYPT #%d", wc.index, r.Op, r.ReqID, want))
	case r.Status != server.StatusOK:
		// A verdict, not a fault: the packet failed, the run goes on, and
		// the server's verdict totals must show it too.
		wc.failed++
		wc.refused++
	case len(r.Out) != s.payload+s.spec.TagLen:
		wc.ok++ // the server counted it OK; the totals must still agree
		wc.failed++
		wc.fail(fmt.Errorf("conn %d: request %d returned %d bytes", wc.index, want, len(r.Out)))
	default:
		wc.ok++
		wc.bytes += int64(s.payload)
	}
}

func (wc *wireConn) fail(err error) {
	if wc.err == nil {
		wc.err = err
	}
}

// traceRequest records the spans of one answered request: the round trip,
// the encode call inside it, and the server-reported batching wait and
// service time as children. The transport (TCP, reader, writer, wake-ups)
// is what remains: the round trip's self time. The server reports
// durations, not instants, so the two server spans are laid end to end in
// the middle of the gap.
func (wc *wireConn) traceRequest(req uint64, sent, encoded, read int64, t server.Timing) {
	sent, encoded, read = sent+wc.trBase, encoded+wc.trBase, read+wc.trBase
	root := wc.tr.add("wire.request", 0, req, sent, read)
	wc.tr.add("server.encode", root, req, sent, encoded)
	q, s := int64(t.QueueNs), int64(t.ServiceNs)
	at := encoded + max(0, (read-encoded-q-s)/2)
	wc.tr.add("server.batch_wait", root, req, at, at+q)
	wc.tr.add("server.service", root, req, at+q, at+q+s)
}

// maxBurst bounds the requests one FLUSH covers; it stays below the
// server's per-connection write buffer.
const maxBurst = 256

// burst is the requests a connection has sent and not yet read answers for.
type burst struct {
	n      int
	from   [maxBurst]int64 // instant the latency counts from: send or due
	sent   [maxBurst]int64
	sealed [maxBurst]int64 // SendEncrypt returned
	ids    [maxBurst]uint64
	sess   [maxBurst]*wireSession
	traced [maxBurst]bool
}

// send pipelines request n of the connection into the burst. from is the
// request's due instant on the open loop; negative means "now".
func (wc *wireConn) send(begin time.Time, b *burst, n uint64, from int64, traced bool) bool {
	s, nonce, payload := wc.packet(n)
	k := b.n
	b.sess[k], b.traced[k] = s, traced
	b.sent[k] = int64(time.Since(begin))
	id, err := wc.c.SendEncrypt(s.id, nonce, nil, payload)
	b.sealed[k] = int64(time.Since(begin))
	if err != nil {
		wc.fail(err)
		return false
	}
	if b.ids[k], b.from[k] = id, from; from < 0 {
		b.from[k] = b.sent[k]
	}
	b.n++
	wc.attempted++
	return true
}

// collect FLUSHes the burst, reads its answers and the FLUSH ack, and books
// latencies and one completion instant.
func (wc *wireConn) collect(begin time.Time, b *burst) bool {
	if _, err := wc.c.SendFlush(); err != nil {
		wc.fail(err)
		return false
	}
	for k := 0; k <= b.n; k++ {
		r, err := wc.c.ReadResponse()
		if err != nil {
			wc.fail(err)
			return false
		}
		if k == b.n {
			if r.Op != server.OpFlush {
				wc.fail(fmt.Errorf("conn %d: expected the FLUSH ack, got %v", wc.index, r.Op))
			}
			break
		}
		read := int64(time.Since(begin))
		wc.answer(r, b.ids[k], b.sess[k])
		wc.latUs = append(wc.latUs, float64(read-b.from[k])/1e3)
		if b.traced[k] {
			wc.traceRequest(b.ids[k], b.sent[k], b.sealed[k], read, r.Timing)
		}
	}
	wc.doneAt = append(wc.doneAt, int64(time.Since(begin)))
	wc.doneN = append(wc.doneN, int32(b.n))
	b.n = 0
	return wc.err == nil
}

// saturate is wire-sat's closed loop on one connection: satPipeline
// ENCRYPTs back to back, FLUSH, read everything, again.
func (wc *wireConn) saturate(begin, deadline time.Time) {
	var b burst
	for n, round := uint64(0), 0; time.Now().Before(deadline); round++ {
		traced := wc.tr != nil && round%traceSample == 0
		for k := 0; k < satPipeline; k, n = k+1, n+1 {
			if !wc.send(begin, &b, n, -1, traced) {
				return
			}
		}
		if !wc.collect(begin, &b) {
			return
		}
	}
}

// openLoop is wire-open's generator on one connection: send what is due,
// FLUSH, read the answers, sleep to the next due instant. Latency counts
// from the due instant, so a stall is charged to every request it delays.
func (wc *wireConn) openLoop(begin time.Time, due []int64) {
	var b burst
	for next := 0; next < len(due); {
		now := int64(time.Since(begin))
		if wait := due[next] - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			continue
		}
		for ; next < len(due) && due[next] <= now && b.n < maxBurst; next++ {
			if !wc.send(begin, &b, uint64(next), due[next], wc.tr != nil && next%traceSample == 0) {
				return
			}
			wc.lateUs = append(wc.lateUs, float64(b.sent[b.n-1]-due[next])/1e3)
		}
		if !wc.collect(begin, &b) {
			return
		}
	}
}

func (rig *wireRig) measure(rep *repetition) error {
	budget := rig.env.budget
	expect := int(budget.Seconds()*openRatePerConn) + satPipeline
	if !rig.open {
		expect = int(budget.Seconds() * 60_000)
	}
	sched := newRNG(rig.env.seed).split(6)
	dues := make([][]int64, len(rig.conns))
	for i, wc := range rig.conns {
		wc.latUs = make([]float64, 0, expect)
		wc.doneAt = make([]int64, 0, expect)
		wc.doneN = make([]int32, 0, expect)
		if rig.open {
			wc.lateUs = make([]float64, 0, expect)
			dues[i] = openLoopSchedule(sched, int(budget.Seconds()*openRatePerConn), budget)
		}
	}
	before := rig.srv.Cluster().Snapshot()

	var begin time.Time
	rep.timed(func() {
		begin = time.Now()
		var wg sync.WaitGroup
		for i, wc := range rig.conns {
			if tr := rig.env.tr; tr != nil {
				// One tracer per connection goroutine, on the run's clock.
				wc.tr, wc.trBase = &tracer{t0: tr.t0}, int64(begin.Sub(tr.t0))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rig.open {
					wc.openLoop(begin, dues[i])
				} else {
					wc.saturate(begin, begin.Add(budget))
				}
			}()
		}
		wg.Wait()
	})
	elapsed := time.Since(begin)

	var lateUs []float64
	for _, wc := range rig.conns {
		if wc.err != nil {
			return wc.err
		}
		rep.attempted += wc.attempted
		rep.failed += wc.failed
		rig.okTotal += uint64(wc.ok)
		rig.refused += wc.refused
		rep.latUs = append(rep.latUs, wc.latUs...)
		lateUs = append(lateUs, wc.lateUs...)
	}
	rig.rateSlices(rep, elapsed)

	// Output checks outside the timed region: a DECRYPT round trip on
	// every session, then the server's verdict totals against ours.
	for _, wc := range rig.conns {
		if err := wc.checkSessions(1); err != nil {
			return err
		}
	}
	stats, err := rig.conns[0].c.Retrieve()
	if err != nil {
		return fmt.Errorf("RETRIEVE_DATA: %w", err)
	}
	var other uint64
	for st, n := range stats.Verdicts {
		if server.Status(st) != server.StatusOK {
			other += n
		}
	}
	if got := stats.Verdicts[server.StatusOK]; got != rig.okTotal || other != rig.refused {
		return fmt.Errorf("server counted %d OK and %d other verdicts, the clients saw %d and %d", got, other, rig.okTotal, rig.refused)
	}

	shardLayerCounts(before, rig.srv.Cluster().Snapshot(), rep)
	p := float64(rep.pkts)
	rep.layer["server.achieved_req_per_s"] = p / elapsed.Seconds()
	if v, used := percentileOf(rep.latUs, 99); len(rep.latUs) > 0 {
		rep.layer["server.rtt_p99_us"] = v
		rep.note("server.rtt_p99_us is p%.4g of %d requests", used, len(rep.latUs))
	}
	if rig.open {
		late99, _ := percentileOf(lateUs, 99)
		rep.layer["server.late_p99_us"] = late99
		var over int
		for _, l := range lateUs {
			if l > 1000 {
				over++
			}
		}
		rep.note("loopback TCP: %d requests scheduled at %d req/s, achieved %.1f req/s; generator lateness p50 %.0f us, p99 %.0f us, %.2f%% of sends > 1 ms late",
			len(lateUs), wireConns*openRatePerConn, p/elapsed.Seconds(), median(lateUs), late99, 100*float64(over)/float64(len(lateUs)))
	} else {
		rep.note("loopback TCP: %d connections x %d sessions, %d requests pipelined per FLUSH", wireConns, wireSessionsPerConn, satPipeline)
	}
	for _, wc := range rig.conns {
		if wc.tr != nil {
			rep.spans = mergeSpans(rep.spans, wc.tr.spans)
		}
	}
	if len(rep.spans) > 0 {
		wireTiling(rep)
	}
	return nil
}

// rateSlices turns the connections' completion instants into throughput
// samples about one rateSlice long. A sample runs from one completion
// instant to the first completion at least rateSlice later, so its length
// is measured, not nominal; what completes before the first full sample
// boundary or after the last is counted as completed but not sampled.
func (rig *wireRig) rateSlices(rep *repetition, elapsed time.Duration) {
	type event struct {
		at int64
		n  int32
	}
	var events []event
	var total, bytes int64
	for _, wc := range rig.conns {
		for i, at := range wc.doneAt {
			events = append(events, event{at, wc.doneN[i]})
		}
		total += wc.ok
		bytes += wc.bytes
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	perPkt := float64(bytes) / float64(max(total, 1))
	var from, count int64 // the open sample began at instant from
	began := false
	for _, ev := range events {
		switch {
		case !began:
			// The first sample starts at the first completion after one
			// slice of ramp-up.
			if ev.at >= int64(rateSlice) {
				began, from = true, ev.at
			}
		default:
			count += int64(ev.n)
			if ev.at-from >= int64(rateSlice) {
				rep.rates = append(rep.rates, rateSample{ev.at - from, count, int64(float64(count) * perPkt)})
				from, count = ev.at, 0
			}
		}
	}
	if len(rep.rates) == 0 {
		rep.rates = append(rep.rates, rateSample{int64(elapsed), total, bytes})
	}
	rep.pkts, rep.payloadBytes = total, bytes
}

// mergeSpans appends more to spans, renumbering IDs and parents.
func mergeSpans(spans, more []span) []span {
	off := len(spans)
	for _, s := range more {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		spans = append(spans, s)
	}
	return spans
}

// wireTiling derives the per-request tiling from the spans: for every
// wire.request, encode + batch_wait + service are its children and
// transport is its self time, so the four sum to the round trip exactly.
func wireTiling(rep *repetition) {
	self := selfTimes(rep.spans)
	parts := map[string][]float64{}
	byRoot := map[int]map[string]int64{}
	for _, s := range rep.spans {
		if s.Name == "wire.request" {
			byRoot[s.ID] = map[string]int64{"rtt": s.dur(), "server.transport": self[s.ID]}
		}
	}
	for _, s := range rep.spans {
		if m := byRoot[s.Parent]; m != nil {
			m[s.Name] += s.dur()
		}
	}
	var worst int64
	roots := make([]int, 0, len(byRoot))
	for id := range byRoot {
		roots = append(roots, id)
	}
	sort.Ints(roots)
	for _, id := range roots {
		m := byRoot[id]
		sum := m["server.encode"] + m["server.transport"] + m["server.batch_wait"] + m["server.service"]
		worst = max(worst, max(sum-m["rtt"], m["rtt"]-sum))
		for _, name := range []string{"server.encode", "server.transport", "server.batch_wait", "server.service", "rtt"} {
			parts[name] = append(parts[name], float64(m[name])/1e3)
		}
	}
	for _, name := range []string{"server.encode", "server.transport", "server.batch_wait", "server.service"} {
		rep.layer[name+"_us"] = median(parts[name])
	}
	rep.layer["server.tiling_gap_ns"] = float64(worst)
	rep.note("traced %d requests: round trip p50 %.1f us = encode %.1f + transport %.1f + batch_wait %.1f + service %.1f (p50 each); worst per-request tiling gap %d ns",
		len(roots), median(parts["rtt"]), median(parts["server.encode"]), median(parts["server.transport"]),
		median(parts["server.batch_wait"]), median(parts["server.service"]), worst)
}
