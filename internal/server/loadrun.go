package server

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"mccp/internal/arrivals"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// LoadConfig drives RunLoad, the open-loop wire workload shared by
// cmd/mccploadgen and the harness's E14 table.
//
// Arrival times live on a client-side "wire clock" in virtual cycles:
// each session draws interarrival gaps from its own split PRNG stream,
// the merged stream is partitioned into fixed windows of WindowCycles,
// and each window's packets are sent pipelined and closed with a FLUSH
// barrier. A packet's wire latency is its batching wait (window end
// minus arrival) plus the shard-side service cycles the response
// reports — so with one connection the whole measurement is a pure
// function of (config, seed) and reproduces bit-identically.
type LoadConfig struct {
	// Sessions is the total concurrent session count (default 64),
	// dealt round-robin over the Mix profiles and split evenly across
	// Conns.
	Sessions int
	// Mix is the class mix (required). Shares weight the offered bits.
	Mix []arrivals.ClassProfile
	// Process names the arrival process per session (arrivals.ByName;
	// default poisson).
	Process string
	// BitsPerCycle is the total offered load on the wire clock.
	BitsPerCycle float64
	// WindowCycles is the client batching window (default 8192): the
	// deadline by which every arrival in a window is on the wire.
	WindowCycles sim.Time
	// Windows is the measurement length in windows (default 48).
	Windows int
	// Seed roots the splittable PRNG tree.
	Seed uint64
	// Conns is the connection count (default 1). Each connection runs
	// its own goroutine, client and PRNG stream split from the root in
	// connection order; with more than one connection the interleaving
	// at the server is scheduling-dependent, so virtual-time results are
	// no longer bit-reproducible.
	Conns int
	// Pipeline bounds outstanding unanswered sends per connection
	// (default 512; must stay below the server's WriteBuffer).
	Pipeline int
	// Trace, when set, receives one line per packet: CSV by default,
	// JSONL (one object per line, same fields) with TraceJSON.
	Trace     io.Writer
	TraceJSON bool

	// ChurnSessions, per connection, closes and re-opens that many
	// sessions (round-robin over the connection's slots) at each window
	// boundary from window ChurnFrom on — the deterministic open/close
	// storm. The churned sessions' arrival streams are unchanged; only
	// their wire ids and cluster placement re-key. ChurnFrom <= 0 means
	// every boundary.
	ChurnSessions int
	ChurnFrom     int
	// IOTimeout bounds each connection's response reads (Client.
	// SetIOTimeout); Retry configures the lock-step retry policy used by
	// the churn's OPEN/CLOSE round trips. Both zero by default.
	IOTimeout time.Duration
	Retry     RetryPolicy
}

func (c *LoadConfig) fill() error {
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("server: RunLoad needs a class mix")
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 8192
	}
	if c.Windows <= 0 {
		c.Windows = 48
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 512
	}
	if c.BitsPerCycle <= 0 {
		return fmt.Errorf("server: RunLoad needs a positive offered load")
	}
	return nil
}

// LoadResult is RunLoad's merged outcome.
type LoadResult struct {
	// Classes holds one cell per qos.Classes(), highest priority first,
	// over HorizonCycles at the mix's packet sizes. Every response counts
	// in verdict order: expired and aged drops inside Shed, auth failures
	// inside Failed. Latency is end to end on the wire clock — batching
	// wait (window end minus arrival) plus shard service — and each cell
	// keeps its sorted samples.
	Classes []qos.ClassCell
	// ArrivalDigests folds each connection's generated arrivals, in
	// connection order.
	ArrivalDigests []uint64
	// HorizonCycles is the wire-clock measurement span.
	HorizonCycles sim.Time
	// Stats is the server's RETRIEVE_DATA report after the run.
	Stats *Stats
	// Windows is the per-window record, indexed by qos.Class and summed
	// across connections; Classes is its total.
	Windows [][qos.NumClasses]qos.ClassStats
	// Churned counts sessions closed and re-opened by the churn storm.
	Churned uint64
}

// connLoad is one connection's share of a run.
type connLoad struct {
	windows [][qos.NumClasses]qos.ClassStats
	samples [qos.NumClasses][]sim.Time
	digest  uint64
	churned uint64
}

// count adds one response to a class record, classified as verdict.For
// classifies the error behind it.
func count(st *qos.ClassStats, s Status, bytes int) {
	st.Submitted++
	switch s {
	case StatusOK:
		st.Completed++
		st.Bytes += uint64(bytes)
	case StatusRejected:
		st.Rejected++
	case StatusShed:
		st.Shed++
	case StatusExpired:
		st.Shed++
		st.Expired++
	case StatusAged:
		st.Shed++
		st.Aged++
	default:
		st.Failed++
	}
}

// lockedWriter serializes trace lines across connection goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// wireArrival is one generated packet-to-be.
type wireArrival struct {
	at   sim.Time
	sess int // local session index on this connection
	seq  int
	prof *arrivals.ClassProfile
}

// sentMeta tracks one in-flight request for response matching (FIFO —
// responses arrive in request order on a connection).
type sentMeta struct {
	flush  bool
	arr    wireArrival
	window sim.Time // wire-clock window end = the dispatch instant
}

// RunLoad opens Sessions sessions over Conns connections and replays the
// open-loop mix against a server, lock-stepping each window. dial is
// called once per connection.
func RunLoad(dial func() (net.Conn, error), cfg LoadConfig) (LoadResult, error) {
	if err := cfg.fill(); err != nil {
		return LoadResult{}, err
	}
	if cfg.Trace != nil && cfg.Conns > 1 {
		cfg.Trace = &lockedWriter{w: cfg.Trace}
	}

	root := arrivals.NewRand(cfg.Seed ^ 0xE14A77)
	connRands := make([]*arrivals.Rand, cfg.Conns)
	for i := range connRands {
		connRands[i] = root.Split()
	}

	// Deal sessions: global index -> (conn, profile). Class rates divide
	// by the class's global session count, so the superposed offered
	// load matches BitsPerCycle regardless of the split.
	per := cfg.Sessions / cfg.Conns
	extra := cfg.Sessions % cfg.Conns
	classSessions := make([]int, len(cfg.Mix))
	for g := 0; g < cfg.Sessions; g++ {
		classSessions[g%len(cfg.Mix)]++
	}

	clients := make([]*Client, cfg.Conns)
	loads := make([]*connLoad, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	base := 0
	for ci := 0; ci < cfg.Conns; ci++ {
		n := per
		if ci < extra {
			n++
		}
		wg.Add(1)
		go func(ci, base, n int, rng *arrivals.Rand) {
			defer wg.Done()
			clients[ci], loads[ci], errs[ci] = runConn(dial, cfg, ci, base, n, classSessions, rng)
			if ci > 0 && clients[ci] != nil {
				clients[ci].Close()
			}
		}(ci, base, n, connRands[ci])
		base += n
	}
	wg.Wait()

	res := LoadResult{
		HorizonCycles:  sim.Time(cfg.Windows) * cfg.WindowCycles,
		ArrivalDigests: make([]uint64, cfg.Conns),
		Windows:        make([][qos.NumClasses]qos.ClassStats, cfg.Windows),
	}
	var total [qos.NumClasses]qos.ClassStats
	var samples [qos.NumClasses][]sim.Time
	for ci, cr := range loads {
		if cr == nil {
			continue
		}
		res.ArrivalDigests[ci] = cr.digest
		res.Churned += cr.churned
		for w := range cr.windows {
			for c := range cr.windows[w] {
				res.Windows[w][c].Accumulate(cr.windows[w][c])
				total[c].Accumulate(cr.windows[w][c])
			}
		}
		for c := range samples {
			samples[c] = append(samples[c], cr.samples[c]...)
		}
	}
	var bytes [qos.NumClasses]int
	for _, p := range cfg.Mix {
		bytes[p.Class] = p.Bytes
	}
	for _, class := range qos.Classes() {
		total[class].Class = class
		cell := qos.NewClassCell(total[class], samples[class], bytes[class], res.HorizonCycles)
		cell.Samples = samples[class]
		res.Classes = append(res.Classes, cell)
	}

	first := clients[0]
	for _, err := range errs {
		if err != nil {
			if first != nil {
				first.Close()
			}
			return res, err
		}
	}
	if first != nil {
		st, err := first.Retrieve()
		first.Close()
		if err != nil {
			return res, err
		}
		res.Stats = st
	}
	return res, nil
}

// runConn drives one connection's share of the load and returns its
// client (left open for the final RETRIEVE) and tallies.
func runConn(dial func() (net.Conn, error), cfg LoadConfig, ci, base, n int,
	classSessions []int, rng *arrivals.Rand) (*Client, *connLoad, error) {
	nc, err := dial()
	if err != nil {
		return nil, nil, err
	}
	cl := NewClient(nc)
	if cfg.IOTimeout > 0 {
		cl.SetIOTimeout(cfg.IOTimeout)
	}
	if cfg.Retry.Attempts > 1 {
		if cfg.Retry.Seed == 0 {
			// Give each connection its own jitter stream off the run seed,
			// so retry storms decorrelate but reruns reproduce exactly.
			cfg.Retry.Seed = splitmix64(cfg.Seed ^ uint64(ci)*0xA24BAED4963EE407)
		}
		cl.SetRetryPolicy(cfg.Retry)
	}

	// Open this connection's sessions in global order.
	specs := make([]OpenRequest, n)
	profs := make([]*arrivals.ClassProfile, n)
	for i := 0; i < n; i++ {
		p := &cfg.Mix[(base+i)%len(cfg.Mix)]
		profs[i] = p
		specs[i] = OpenRequest{
			Family:   p.Family,
			KeyLen:   p.KeyLen,
			TagLen:   p.TagLen,
			Class:    p.Class,
			Deadline: p.Deadline,
		}
	}
	ids, err := cl.OpenMany(specs)
	if err != nil {
		cl.Close()
		return nil, nil, err
	}

	// Generate every session's arrivals on the wire clock, folding the
	// digest in session-major order, then merge-sort by (time, session,
	// seq).
	horizon := sim.Time(cfg.Windows) * cfg.WindowCycles
	cr := &connLoad{
		windows: make([][qos.NumClasses]qos.ClassStats, cfg.Windows),
		digest:  arrivals.DigestInit,
	}
	var all []wireArrival
	nonces := make([][]byte, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := profs[i]
		gap := p.MeanGap(cfg.BitsPerCycle) * float64(classSessions[(base+i)%len(cfg.Mix)])
		mk, err := arrivals.ByName(cfg.Process, gap)
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		proc := mk()
		srng := rng.Split()
		at := sim.Time(0)
		seq := 0
		for {
			at += proc.Gap(srng)
			if at >= horizon {
				break
			}
			cr.digest = arrivals.FoldArrival(cr.digest, uint64(base+i), uint64(seq), at)
			all = append(all, wireArrival{at: at, sess: i, seq: seq, prof: p})
			seq++
		}
		nonces[i] = make([]byte, p.NonceLen())
		nonces[i][0] = byte(base + i)
		payloads[i] = make([]byte, p.Bytes)
		for j := range payloads[i] {
			payloads[i][j] = byte((base+i)*31 + j)
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].at != all[b].at {
			return all[a].at < all[b].at
		}
		if all[a].sess != all[b].sess {
			return all[a].sess < all[b].sess
		}
		return all[a].seq < all[b].seq
	})

	// Replay window by window, lock-stepping at each FLUSH barrier (and
	// at the pipeline bound within a window).
	inflight := make([]sentMeta, 0, cfg.Pipeline+1)
	head := 0
	pop := func() (*sentMeta, error) {
		r, err := cl.ReadResponse()
		if err != nil {
			return nil, err
		}
		m := &inflight[head]
		head++
		if m.flush {
			if r.Op != OpFlush {
				return nil, fmt.Errorf("server: expected FLUSH ack, got %s", r.Op)
			}
			return m, nil
		}
		if r.Op != OpEncrypt {
			return nil, fmt.Errorf("server: expected ENCRYPT response, got %s", r.Op)
		}
		wait := m.window - m.arr.at
		total := wait + r.Timing.WireCycles
		class := m.arr.prof.Class
		count(&cr.windows[m.window/cfg.WindowCycles-1][class], r.Status, m.arr.prof.Bytes)
		if r.Status == StatusOK {
			cr.samples[class] = append(cr.samples[class], total)
		}
		if cfg.Trace != nil {
			if cfg.TraceJSON {
				fmt.Fprintf(cfg.Trace, `{"conn":%d,"session":%d,"class":%q,"seq":%d,"arrival_cycle":%d,"bytes":%d,"status":%q,"service_cycles":%d,"total_cycles":%d,"queue_ns":%d,"service_ns":%d}`+"\n",
					ci, base+m.arr.sess, m.arr.prof.Class.String(), m.arr.seq, m.arr.at,
					m.arr.prof.Bytes, r.Status.String(), r.Timing.WireCycles, total,
					r.Timing.QueueNs, r.Timing.ServiceNs)
			} else {
				fmt.Fprintf(cfg.Trace, "%d,%d,%s,%d,%d,%d,%s,%d,%d,%d,%d\n",
					ci, base+m.arr.sess, m.arr.prof.Class, m.arr.seq, m.arr.at,
					m.arr.prof.Bytes, r.Status, r.Timing.WireCycles, total,
					r.Timing.QueueNs, r.Timing.ServiceNs)
			}
		}
		return m, nil
	}
	barrier := func() error {
		if _, err := cl.SendFlush(); err != nil {
			return err
		}
		inflight = append(inflight, sentMeta{flush: true})
		if err := cl.Flush(); err != nil {
			return err
		}
		for head < len(inflight) {
			if _, err := pop(); err != nil {
				return err
			}
		}
		inflight = inflight[:0]
		head = 0
		return nil
	}

	churnFrom := cfg.ChurnFrom
	if churnFrom <= 0 {
		churnFrom = 1
	}
	churnCursor := 0
	next := 0
	for w := 0; w < cfg.Windows; w++ {
		winEnd := sim.Time(w+1) * cfg.WindowCycles
		for next < len(all) && all[next].at < winEnd {
			a := all[next]
			next++
			nonce := arrivals.StampNonce(nonces[a.sess], a.seq)
			if _, err := cl.SendEncrypt(ids[a.sess], nonce, nil, payloads[a.sess]); err != nil {
				cl.Close()
				return nil, cr, err
			}
			inflight = append(inflight, sentMeta{arr: a, window: winEnd})
			if len(inflight)-head >= cfg.Pipeline {
				if err := barrier(); err != nil {
					cl.Close()
					return nil, cr, err
				}
			}
		}
		if err := barrier(); err != nil {
			cl.Close()
			return nil, cr, err
		}
		// The churn storm: entering window w+1, close and re-open the
		// next ChurnSessions slots lock-step. The re-opened session keeps
		// its arrival stream but re-keys and re-routes like a fresh one.
		if cfg.ChurnSessions > 0 && w+1 >= churnFrom && w+1 < cfg.Windows {
			for k := 0; k < cfg.ChurnSessions; k++ {
				slot := churnCursor % n
				churnCursor++
				if _, err := cl.CloseSession(ids[slot]); err != nil {
					cl.Close()
					return nil, cr, err
				}
				p := profs[slot]
				nid, err := cl.Open(OpenRequest{
					Family:   p.Family,
					KeyLen:   p.KeyLen,
					TagLen:   p.TagLen,
					Class:    p.Class,
					Deadline: p.Deadline,
				})
				if err != nil {
					cl.Close()
					return nil, cr, err
				}
				ids[slot] = nid
				cr.churned++
			}
		}
	}
	return cl, cr, nil
}
