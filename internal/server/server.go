package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mccp/internal/bufpool"
	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/fleet"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// Config sizes a Server.
type Config struct {
	// Cluster configures the sharded MCCP backend. When
	// Cluster.BatchWindow is 0 the server raises it to 2xBatchOps so the
	// server's own flush triggers are the only batch-boundary driver —
	// batch partitioning then depends only on the request sequence.
	Cluster cluster.Config
	// BatchOps is the size trigger: queued packet operations that force a
	// flush (default 64).
	BatchOps int
	// FlushInterval is the wall-clock deadline trigger: a periodic flush
	// bounding how long a lone request waits for batch-mates. 0 disables
	// it — flushes then happen only on the size trigger and FLUSH frames,
	// keeping batch boundaries (and so every virtual-time figure) a pure
	// function of the request sequence. Deterministic runs use 0.
	FlushInterval time.Duration
	// IdleTimeout reaps connections with no inbound frame for this long
	// (0 = never). Reaping closes the connection; its sessions are
	// drained and released in request order.
	IdleTimeout time.Duration
	// MaxSessions bounds concurrently open wire sessions across all
	// connections (0 = unbounded); OPEN past the bound is Rejected —
	// admission control at the session level, upstream of the per-packet
	// QoS verdicts.
	MaxSessions int
	// QueueDepth is the shared inbound request channel's capacity
	// (default 4096): how far connection readers may run ahead of the
	// batcher before backpressure reaches the sockets.
	QueueDepth int
	// WriteBuffer is each connection's outbound response-frame buffer
	// (default 1024). A client must read responses; a connection whose
	// peer stops reading stalls the batcher once its buffer fills (until
	// the idle reaper claims it).
	WriteBuffer int
	// OpenBurst, with OpenRefill, is the per-connection OPEN-admission
	// token bucket guarding the front door against open/close storms: a
	// connection holds at most OpenBurst tokens, each admitted non-voice
	// OPEN spends one, and OpenRefill tokens return at every FLUSH-window
	// boundary (OpenRefill 0 refills to the full burst). A non-voice OPEN
	// arriving with the bucket empty is answered StatusShed — the
	// existing load-shedding verdict — without touching the cluster.
	// Voice OPENs are never shed by admission. 0 disables the bucket.
	OpenBurst  int
	OpenRefill int
	// OpenWindowCap bounds the non-voice OPENs admitted server-wide in
	// one FLUSH window — the global storm valve behind the per-connection
	// buckets. Overflow is StatusShed; voice is exempt. 0 = unbounded.
	OpenWindowCap int
	// Faults wires the heal controller (internal/fleet) into the serving
	// loop: its Boundary runs at every FLUSH-counted window boundary — the
	// k-th FLUSH frame the server sees ends window k-1 — arming the
	// policy's seeded shard faults and running the failure detector,
	// fail-over, brownout, restart and lift. nil = no faults, no detector —
	// the zero-overhead default every fault-free experiment runs with.
	Faults *fleet.HealPolicy
}

func (c *Config) fill() {
	if c.BatchOps <= 0 {
		c.BatchOps = 64
	}
	if c.Cluster.BatchWindow <= 0 {
		c.Cluster.BatchWindow = 2 * c.BatchOps
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.WriteBuffer <= 0 {
		c.WriteBuffer = 1024
	}
}

// maxWireSamples caps the per-class service-latency sample buffers
// feeding RETRIEVE_DATA percentiles; later samples are dropped (the cap
// is far above any CI run, and dropping is deterministic).
const maxWireSamples = 1 << 20

// conn is one accepted connection. The reader goroutine decodes frames
// onto the server's request channel; the writer drains the bounded out
// channel to the socket. sessions and cleaned are batcher-owned.
type conn struct {
	s          *Server
	nc         net.Conn
	out        chan outFrame
	done       chan struct{} // closed by the batcher when the conn is cleaned
	lastActive atomic.Int64  // UnixNano of the last inbound frame

	sessions map[uint64]struct{}
	cleaned  bool

	// opened/closed cache OPEN and CLOSE response frames by request id
	// (batcher-owned): a client retrying a timed-out control request
	// resends it under the same id, and the replayed frame makes the
	// retry exactly-once — a retried OPEN never opens twice.
	opened map[uint64][]byte
	closed map[uint64][]byte

	// openTokens is the connection's OPEN-admission bucket (batcher-owned,
	// Config.OpenBurst/OpenRefill); non-voice OPENs spend from it.
	openTokens int
}

// outFrame is one response body queued for a connection's writer. pooled
// marks a bufpool buffer (a packet response) that the writer recycles once
// written; every other body, the OPEN/CLOSE frames conn.opened and
// conn.closed keep for replay among them, is never recycled.
type outFrame struct {
	body   []byte
	pooled bool
}

// requestPool is the free list of request records. Connection readers take
// a record per frame; the batcher returns it once the request's response is
// queued: a packet's in its bound completion, any other at the end of
// handleReq.
type requestPool struct {
	mu   sync.Mutex
	free []*request
}

// maxPooledBody caps the body buffer a recycled record keeps, so a burst
// of large frames does not leave every pooled record holding megabytes.
const maxPooledBody = 64 << 10

func (p *requestPool) get() *request {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r
	}
	p.mu.Unlock()
	r := &request{}
	r.done = r.complete
	return r
}

// put clears a record for its next use, keeping its body buffer and bound
// completion.
func (p *requestPool) put(r *request) {
	buf := r.buf[:0]
	if cap(buf) > maxPooledBody {
		buf = nil
	}
	*r = request{buf: buf, done: r.done}
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}

// wireSession binds a wire session id to a cluster session (batcher
// state).
type wireSession struct {
	id       uint64
	ses      *cluster.Session
	conn     *conn
	class    qos.Class
	deadline sim.Time
	shard    int
	closed   bool
}

// serverStats is the batcher's wire-level accounting behind
// RETRIEVE_DATA.
type serverStats struct {
	sessionsOpen   uint64
	sessionsOpened uint64
	verdicts       [11]uint64
	bytesIn        uint64
	bytesOut       uint64
}

// Server is the MCCP network front end.
type Server struct {
	cfg Config
	cl  *cluster.Cluster

	reqCh chan *request
	reqs  requestPool

	ln      net.Listener
	serving bool
	closing atomic.Bool

	connMu sync.Mutex
	conns  map[*conn]struct{}

	wgAccept  sync.WaitGroup
	wgReaders sync.WaitGroup
	wgWriters sync.WaitGroup

	batcherDone chan struct{}
	reaperStop  chan struct{}
	reaperDone  chan struct{}

	closeOnce sync.Once
	closeErr  error

	// Batcher-owned state. flushAt is the wall-clock instant (UnixNano) of
	// the last flush that dispatched packets and flushSeq counts those
	// flushes: a packet queued at flushSeq n was dispatched by flush n+1.
	sessions    map[uint64]*wireSession
	nextSess    uint64
	pendingOps  int
	flushAt     int64
	flushSeq    uint64
	stats       serverStats
	digests     []uint64
	wireSamples [qos.NumClasses][]sim.Time

	// Window plane (batcher-owned): windows counts FLUSH frames,
	// opensWindow the non-voice OPENs admitted in the current window, and
	// heal is the controller Config.Faults asked for (nil without one).
	windows     int
	opensWindow int
	heal        *fleet.Controller

	// Observability plane: reg is the metrics registry every exposition
	// path (STATS frames, the HTTP endpoint, CLI reports) reads; pub is
	// the batcher's published wire-counter snapshot, refreshed at every
	// flush so registry collectors on other goroutines never touch the
	// batcher-owned serverStats.
	reg *obs.Registry
	pub atomic.Pointer[pubStats]
}

// New builds the backend cluster and starts the batcher (and, with
// Config.IdleTimeout set, the reaper). The server accepts no connections
// until Serve.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		cl:          cl,
		reqCh:       make(chan *request, cfg.QueueDepth),
		conns:       make(map[*conn]struct{}),
		batcherDone: make(chan struct{}),
		reaperStop:  make(chan struct{}),
		reaperDone:  make(chan struct{}),
		sessions:    make(map[uint64]*wireSession),
		nextSess:    1,
		digests:     make([]uint64, cl.Shards()),
	}
	for i := range s.digests {
		s.digests[i] = digestInit
	}
	if cfg.Faults != nil {
		s.heal = fleet.NewController(cl, *cfg.Faults)
	}
	s.initObs()
	go s.batcher()
	if cfg.IdleTimeout > 0 {
		go s.reaper()
	} else {
		close(s.reaperDone)
	}
	return s, nil
}

// digestInit is the FNV-64a offset basis, the same fold the in-process
// workload digests use — the determinism guard compares the two directly.
const digestInit = 0xcbf29ce484222325

// Cluster exposes the backend for in-process observability (Snapshot is
// safe concurrently; everything else is not while the server runs).
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// Serve starts accepting connections on ln (non-blocking). It may be
// called once; Close closes ln.
func (s *Server) Serve(ln net.Listener) {
	if s.serving {
		panic("server: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	s.wgAccept.Add(1)
	go func() {
		defer s.wgAccept.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.addConn(nc)
		}
	}()
}

func (s *Server) addConn(nc net.Conn) {
	c := &conn{
		s:        s,
		nc:       nc,
		out:      make(chan outFrame, s.cfg.WriteBuffer),
		done:     make(chan struct{}),
		sessions: make(map[uint64]struct{}),
		opened:   make(map[uint64][]byte),
		closed:   make(map[uint64][]byte),

		openTokens: s.cfg.OpenBurst,
	}
	c.lastActive.Store(time.Now().UnixNano())
	s.connMu.Lock()
	if s.closing.Load() {
		s.connMu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	s.wgReaders.Add(1)
	s.wgWriters.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// readLoop decodes inbound frames onto the request channel until the
// connection dies, then injects the cleanup marker — after every request
// the connection sent, preserving order.
func (c *conn) readLoop() {
	defer c.s.wgReaders.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		body, err := readFrame(br, buf)
		if err != nil {
			break
		}
		buf = body
		now := time.Now().UnixNano()
		c.lastActive.Store(now)
		req := c.s.reqs.get()
		req.malformed = !decodeRequest(body, req)
		req.conn, req.enq = c, now
		c.s.reqCh <- req
	}
	c.nc.Close()
	req := c.s.reqs.get()
	req.op, req.conn = opConnClosed, c
	c.s.reqCh <- req
}

// writeLoop drains the out channel to the socket, buffering writes and
// flushing when the channel is momentarily empty, and recycles pooled
// bodies once bufio has copied them. After a write error it keeps draining
// (discarding) so the batcher never blocks on a dead connection's buffer.
func (c *conn) writeLoop() {
	defer c.s.wgWriters.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var hdr [4]byte
	failed := false
	for f := range c.out {
		if !failed {
			putU32(hdr[:0], uint32(len(f.body)))
			_, err := bw.Write(hdr[:])
			if err == nil {
				_, err = bw.Write(f.body)
			}
			if err == nil && len(c.out) == 0 {
				err = bw.Flush()
			}
			failed = err != nil
		}
		if f.pooled {
			bufpool.PutBytes(f.body)
		}
	}
}

// respond hands a response frame to the connection's writer; a cleaned
// connection drops it.
func (s *Server) respond(c *conn, frame []byte) { c.send(outFrame{body: frame}) }

// respondPacket answers an ENCRYPT/DECRYPT in a pooled frame.
func (s *Server) respondPacket(req *request, st Status, t Timing, out []byte) {
	req.conn.send(outFrame{encodePacketResp(req.op, req.reqID, st, t, out), true})
}

func (c *conn) send(f outFrame) {
	select {
	case c.out <- f:
	case <-c.done:
		if f.pooled {
			bufpool.PutBytes(f.body)
		}
	}
}

// reaper closes connections idle past IdleTimeout; the read error path
// then drains and releases their sessions in order.
func (s *Server) reaper() {
	defer close(s.reaperDone)
	tick := s.cfg.IdleTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
			cut := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
			s.connMu.Lock()
			var idle []*conn
			for c := range s.conns {
				if c.lastActive.Load() < cut {
					idle = append(idle, c)
				}
			}
			s.connMu.Unlock()
			for _, c := range idle {
				c.nc.Close()
			}
		}
	}
}

// Shutdown drains the server gracefully before Close: the listener stops
// accepting, new OPENs and packets answer StatusShuttingDown while
// already-batched work still completes and ships, and the server waits up
// to timeout for every client to finish and disconnect on its own. Then
// Close runs the hard teardown. This is what a SIGTERM handler should
// call: clients see an orderly refusal, not a severed socket.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.closing.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.connMu.Lock()
		n := len(s.conns)
		s.connMu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return s.Close()
}

// Close shuts the server down in order: stop accepting, sever every
// connection, drain the readers, let the batcher finish in-flight
// batches and answer or drop what remains, release all sessions, stop
// the cluster. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		s.wgAccept.Wait()
		s.connMu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		s.wgReaders.Wait()
		close(s.reqCh)
		<-s.batcherDone
		s.wgWriters.Wait()
		close(s.reaperStop)
		<-s.reaperDone
	})
	return s.closeErr
}

// batcher is the server's heart: the single goroutine that owns the
// cluster front end and all session state. Requests are processed in
// channel order; packet operations batch until a trigger flushes them.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	var timerC <-chan time.Time
	var timer *time.Ticker
	if s.cfg.FlushInterval > 0 {
		timer = time.NewTicker(s.cfg.FlushInterval)
		timerC = timer.C
		defer timer.Stop()
	}
	for {
		select {
		case req, ok := <-s.reqCh:
			if !ok {
				s.finalize()
				return
			}
			s.handleReq(req)
		case <-timerC:
			s.flush()
		}
	}
}

// finalize runs after the request channel closes: every remaining
// connection is cleaned (draining its in-flight operations and
// answering them before the socket teardown discards the frames), then
// the cluster stops.
func (s *Server) finalize() {
	s.connMu.Lock()
	remaining := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		remaining = append(remaining, c)
	}
	s.connMu.Unlock()
	for _, c := range remaining {
		s.cleanupConn(c)
	}
	s.flush()
	s.cl.Close()
}

// cleanupConn releases a dead connection's sessions (draining in-flight
// work first so their responses are delivered or discarded cleanly) and
// retires its writer.
func (s *Server) cleanupConn(c *conn) {
	if c.cleaned {
		return
	}
	c.cleaned = true
	s.flush()
	for id := range c.sessions {
		ws := s.sessions[id]
		if ws != nil && !ws.closed {
			ws.closed = true
			ws.ses.Close()
			s.stats.sessionsOpen--
		}
		delete(s.sessions, id)
	}
	close(c.done)
	close(c.out)
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// flush stamps the dispatch time of the packets queued since the last one
// and runs the cluster flush, delivering completions (and so responses) in
// enqueue order.
func (s *Server) flush() {
	if s.pendingOps > 0 {
		s.flushAt = time.Now().UnixNano()
		s.flushSeq++
		s.pendingOps = 0
	}
	s.cl.Flush()
	s.publishWire()
}

// handleReq answers one request and recycles its record, except a packet
// the cluster took: that record's bound completion recycles it.
func (s *Server) handleReq(req *request) {
	switch op := req.op; {
	case op == opConnClosed:
		s.cleanupConn(req.conn)
	case req.malformed:
		s.respondErr(req, StatusBadRequest, "malformed request frame")
	case op == OpEncrypt || op == OpDecrypt:
		if s.handlePacket(req) {
			return
		}
	case op == OpOpen:
		s.handleOpen(req)
	case op == OpClose:
		s.handleClose(req)
	case op == OpFlush:
		n := uint32(s.pendingOps)
		s.flush()
		s.windowBoundary()
		s.respond(req.conn, encodeFlushResp(req.reqID, StatusOK, n))
	case op == OpRetrieve:
		s.handleRetrieve(req)
	case op == OpStats:
		s.handleStats(req)
	}
	s.reqs.put(req)
}

// windowBoundary runs after every FLUSH barrier: it advances the window
// clock, refills the OPEN-admission buckets and, with a fault policy,
// runs the heal controller over the window that just ended. Whenever the
// controller acted, sessions may have moved: the wire bindings are
// re-read.
func (s *Server) windowBoundary() {
	s.windows++
	s.refillOpenTokens()
	if s.heal != nil && len(s.heal.Boundary()) > 0 {
		s.rebind()
	}
}

// refillOpenTokens resets the per-window OPEN counter and tops up every
// connection's admission bucket. A no-op (beyond the counter reset) when
// the bucket is disabled.
func (s *Server) refillOpenTokens() {
	s.opensWindow = 0
	if s.cfg.OpenBurst <= 0 {
		return
	}
	refill := s.cfg.OpenRefill
	if refill <= 0 {
		refill = s.cfg.OpenBurst
	}
	s.connMu.Lock()
	for c := range s.conns {
		if c.openTokens += refill; c.openTokens > s.cfg.OpenBurst {
			c.openTokens = s.cfg.OpenBurst
		}
	}
	s.connMu.Unlock()
}

// rebind re-reads every live wire session's shard after the heal
// controller moved cluster sessions around. A crash casualty no survivor
// could take is tombstoned, so its later packets answer session-closed,
// not a corpse.
func (s *Server) rebind() {
	for _, ws := range s.sessions {
		if ws.closed {
			continue
		}
		if ws.ses.Closed() {
			ws.closed = true
			s.stats.sessionsOpen--
			continue
		}
		ws.shard = ws.ses.Shard()
	}
}

// Events returns the heal controller's trail so far (nil without a fault
// policy). Safe from any goroutine.
func (s *Server) Events() []fleet.Event {
	if s.heal == nil {
		return nil
	}
	return s.heal.Events()
}

// respondErr answers a request with an error status in the response
// layout its opcode requires.
func (s *Server) respondErr(req *request, st Status, msg string) {
	switch req.op {
	case OpEncrypt, OpDecrypt:
		s.stats.verdicts[st]++
		now := time.Now().UnixNano()
		s.respondPacket(req, st, Timing{QueueNs: uint64(now - req.enq)}, nil)
	case OpFlush:
		s.respond(req.conn, encodeFlushResp(req.reqID, st, 0))
	default:
		s.respond(req.conn, encodeMsgResp(req.op, req.reqID, st, 0, msg))
	}
}

// handleOpen answers an OPEN. Responses are cached per (connection,
// request id): a retried OPEN — same id, resent after a client-side
// timeout — replays the original outcome instead of opening a second
// session.
func (s *Server) handleOpen(req *request) {
	if frame, ok := req.conn.opened[req.reqID]; ok {
		s.respond(req.conn, frame)
		return
	}
	st, sess, msg := s.doOpen(req)
	frame := encodeMsgResp(OpOpen, req.reqID, st, sess, msg)
	req.conn.opened[req.reqID] = frame
	s.respond(req.conn, frame)
}

func (s *Server) doOpen(req *request) (Status, uint64, string) {
	if s.closing.Load() {
		return StatusShuttingDown, 0, "server shutting down"
	}
	switch cryptocore.Family(req.family) {
	case cryptocore.FamilyGCM, cryptocore.FamilyCCM, cryptocore.FamilyCTR, cryptocore.FamilyCBCMAC:
	default:
		return StatusBadRequest, 0, fmt.Sprintf("unknown algorithm family %d", req.family)
	}
	if req.class < 0 || int(req.class) >= qos.NumClasses {
		return StatusBadRequest, 0, fmt.Sprintf("unknown class %d", req.class)
	}
	// Storm admission: non-voice OPENs pass the global window cap and the
	// connection's token bucket before touching the cluster. Voice OPENs
	// are never shed here — the front door's one hard guarantee.
	if req.class != qos.Voice {
		if s.cfg.OpenWindowCap > 0 && s.opensWindow >= s.cfg.OpenWindowCap {
			return StatusShed, 0, "open admission: window cap reached"
		}
		if s.cfg.OpenBurst > 0 && req.conn.openTokens <= 0 {
			return StatusShed, 0, "open admission: connection bucket empty"
		}
		if s.cfg.OpenWindowCap > 0 {
			s.opensWindow++
		}
		if s.cfg.OpenBurst > 0 {
			req.conn.openTokens--
		}
	}
	if s.cfg.MaxSessions > 0 && int(s.stats.sessionsOpen) >= s.cfg.MaxSessions {
		return StatusRejected, 0, "session limit reached"
	}
	s.flush()
	ses, err := s.cl.Open(cluster.OpenSpec{
		Suite: core.Suite{
			Family:   cryptocore.Family(req.family),
			TagLen:   int(req.tagLen),
			Priority: req.class.Priority(),
		},
		KeyLen: int(req.keyLen),
		Weight: int(req.weight),
	})
	if err != nil {
		return StatusBadRequest, 0, err.Error()
	}
	id := s.nextSess
	s.nextSess++
	s.sessions[id] = &wireSession{
		id:       id,
		ses:      ses,
		conn:     req.conn,
		class:    req.class,
		deadline: req.deadline,
		shard:    ses.Shard(),
	}
	req.conn.sessions[id] = struct{}{}
	s.stats.sessionsOpen++
	s.stats.sessionsOpened++
	return StatusOK, id, ""
}

// lookup resolves a packet/close request's wire session, answering the
// protocol error itself when the id is unknown, closed, or owned by
// another connection.
func (s *Server) lookup(req *request) *wireSession {
	ws, ok := s.sessions[req.sess]
	if !ok || ws.conn != req.conn {
		s.respondErr(req, StatusUnknownSess, fmt.Sprintf("session %d not open on this connection", req.sess))
		return nil
	}
	if ws.closed {
		s.respondErr(req, StatusSessClosed, fmt.Sprintf("session %d already closed", req.sess))
		return nil
	}
	return ws
}

// handleClose answers a CLOSE, with the same per-request-id response
// cache as OPEN: a retried CLOSE replays the first outcome instead of
// tripping over its own tombstone with session-closed.
func (s *Server) handleClose(req *request) {
	if frame, ok := req.conn.closed[req.reqID]; ok {
		s.respond(req.conn, frame)
		return
	}
	st, msg := s.doClose(req)
	frame := encodeMsgResp(OpClose, req.reqID, st, req.sess, msg)
	req.conn.closed[req.reqID] = frame
	s.respond(req.conn, frame)
}

func (s *Server) doClose(req *request) (Status, string) {
	ws, ok := s.sessions[req.sess]
	if !ok || ws.conn != req.conn {
		return StatusUnknownSess, fmt.Sprintf("session %d not open on this connection", req.sess)
	}
	if ws.closed {
		return StatusSessClosed, fmt.Sprintf("session %d already closed", req.sess)
	}
	s.flush()
	ws.closed = true
	err := ws.ses.Close()
	s.stats.sessionsOpen--
	// Keep the tombstone so a second CLOSE (or use after CLOSE) is
	// distinguishable from a never-opened id; it is reclaimed with the
	// connection.
	if err != nil {
		return StatusFailed, err.Error()
	}
	return StatusOK, ""
}

// handlePacket submits an ENCRYPT/DECRYPT to the cluster and reports
// whether it did; a request answered with an error here stays the
// caller's to recycle.
func (s *Server) handlePacket(req *request) bool {
	ws := s.lookup(req)
	if ws == nil {
		return false
	}
	if s.closing.Load() {
		s.respondErr(req, StatusShuttingDown, "")
		return false
	}
	s.stats.bytesIn += uint64(len(req.data))
	s.pendingOps++
	req.shard, req.class, req.flushSeq = ws.shard, ws.class, s.flushSeq
	if req.op == OpEncrypt {
		ws.ses.EncryptWireAsync(req.nonce, req.aad, req.data, ws.deadline, req.done)
	} else {
		ws.ses.DecryptWireAsync(req.nonce, req.aad, req.data, req.tag, req.done)
	}
	if s.pendingOps >= s.cfg.BatchOps {
		s.flush()
	}
	return true
}

// complete is a packet record's completion (bound once per record as
// done). It runs on the batcher inside the cluster's delivery, after the
// cluster let go of the record's body: it books the verdict, answers, and
// recycles the cluster's result buffer and the record.
func (req *request) complete(out []byte, took sim.Time, err error) {
	s := req.conn.s
	st := statusFor(err)
	s.stats.verdicts[st]++
	if err == nil {
		s.stats.bytesOut += uint64(len(out))
		d := s.digests[req.shard]
		for _, by := range out {
			d = (d ^ uint64(by)) * 0x100000001b3
		}
		s.digests[req.shard] = d
		if len(s.wireSamples[req.class]) < maxWireSamples {
			s.wireSamples[req.class] = append(s.wireSamples[req.class], took)
		}
	}
	now := time.Now().UnixNano()
	flushAt := s.flushAt
	if req.flushSeq == s.flushSeq {
		// Delivered before any server flush: the cluster's own batch
		// window dispatched it, just now as far as the wire can tell.
		flushAt = now
	}
	t := Timing{WireCycles: took,
		QueueNs:   uint64(flushAt - req.enq),
		ServiceNs: uint64(now - flushAt)}
	s.respondPacket(req, st, t, out)
	bufpool.PutBytes(out)
	s.reqs.put(req)
}

func (s *Server) handleRetrieve(req *request) {
	s.flush()
	snap := s.cl.Snapshot()
	st := &Stats{
		SessionsOpen:   s.stats.sessionsOpen,
		SessionsOpened: s.stats.sessionsOpened,
		Verdicts:       s.stats.verdicts,
		BytesIn:        s.stats.bytesIn,
		BytesOut:       s.stats.bytesOut,
		ClusterCycles:  snap.ClusterCycles,
		Digests:        append([]uint64(nil), s.digests...),
	}
	for i, class := range qos.Classes() {
		samples := s.wireSamples[class]
		st.Classes[i] = ClassWire{
			Count: uint64(len(samples)),
			P50:   qos.PercentileOf(samples, 50),
			P99:   qos.PercentileOf(samples, 99),
		}
	}
	s.respond(req.conn, encodeStatsResp(req.reqID, st))
}
