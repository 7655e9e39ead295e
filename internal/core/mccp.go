// Package core implements the paper's primary contribution: the
// reconfigurable Multi-Core Crypto-Processor (MCCP). It assembles N
// Cryptographic Cores (default four, as in the paper's implementation), the
// Task Scheduler with its OPEN/CLOSE/ENCRYPT/DECRYPT/RETRIEVE_DATA/
// TRANSFER_DONE control protocol, the Key Scheduler and Key Memory, the
// Cross Bar, the inter-core shift-register ring and the Data Available
// interrupt toward the communication controller.
package core

import (
	"fmt"
	"slices"

	"mccp/internal/aes"
	"mccp/internal/crossbar"
	"mccp/internal/cryptocore"
	"mccp/internal/keysched"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
)

// Task Scheduler instruction costs, in clock cycles. The scheduler is "a
// simple 8-bit controller which executes the task scheduling software"
// (§III.A) at two cycles per instruction; the constants model the
// instruction counts of each protocol handler.
const (
	CostOpen         = 40
	CostClose        = 24
	CostDispatch     = 36 // ENCRYPT/DECRYPT decode + core selection
	CostParamWrite   = 16 // mode/count/mask parameter writes + start strobe
	CostRetrieve     = 16
	CostTransferDone = 12
	CostIRQ          = 2
)

// Errors returned through the 8-bit Return Register.
var (
	ErrNoResources = fmt.Errorf("mccp: no idle cryptographic core (error flag)")
	ErrBadChannel  = fmt.Errorf("mccp: unknown or closed channel")
	ErrNoData      = fmt.Errorf("mccp: RETRIEVE_DATA with empty done queue")
	// ErrQueueFull is the bounded-queue verdict of the QoS extension: the
	// request queue hit Config.MaxQueue, so the request was shed rather
	// than queued unboundedly (distinct from ErrNoResources, the paper's
	// error flag with queueing disabled entirely).
	ErrQueueFull = fmt.Errorf("mccp: request queue full (load shed)")
)

// Suite is a channel's cryptographic configuration.
type Suite struct {
	Family cryptocore.Family
	// TagLen is the authentication tag length in bytes (GCM/CCM).
	TagLen int
	// SplitCCM requests the two-core CCM mapping when a core pair is idle.
	SplitCCM bool
	// Priority orders queued requests when the QoS extension is enabled.
	Priority int
}

// Config sizes the device.
type Config struct {
	// Cores is the number of Cryptographic Cores (the paper implements 4;
	// "more or less than four cores may be implemented according to the
	// communication system requirements").
	Cores int
	// Policy selects the dispatch policy; nil means the paper's first-idle.
	Policy scheduler.Policy
	// QueueRequests enables the §VIII extension: instead of returning the
	// error flag when no core is idle, requests wait in a priority queue.
	QueueRequests bool
	// MaxQueue bounds the request queue when QueueRequests is enabled
	// (0 = unbounded). A request arriving at a full queue is shed with
	// ErrQueueFull and counted in Stats.Shed — backpressure with an
	// explicit verdict instead of unbounded memory growth.
	MaxQueue int
}

// channel is one open communication channel. Channels are immutable
// between OPEN and CLOSE, so the device keeps them, and requests copy them,
// by value.
type channel struct {
	id    int
	suite Suite
	keyID int
}

// reqState tracks a request through the protocol.
type reqState int

const (
	reqProcessing reqState = iota // cores running (upload may still be going)
	reqDoneQueued                 // results in, waiting for RETRIEVE_DATA
	reqRetrieved                  // CC notified, draining output
)

// request is one ENCRYPT/DECRYPT from its issue to its final TRANSFER_DONE.
// Requests are pooled per device (MCCP.freeReq) with every handler bound
// once, so the steady-state packet path allocates nothing here. A record is
// recycled only at the final TRANSFER_DONE of a request already retrieved:
// by then no core, queue or Key Scheduler job refers to it.
type request struct {
	m *MCCP

	// The ENCRYPT/DECRYPT arguments, latched at issue.
	chID            int
	encrypt         bool
	aadLen, dataLen int
	cb              func(Assignment, error)

	// Dispatch: the channel as it stood at decode, the task plan, the cores
	// picked (ids[:n]) and, while keys are being staged, the core whose Key
	// Cache the Key Scheduler is filling (ids[staging]).
	ch      channel
	plan    cryptocore.Plan
	ids     [2]int
	n       int
	staging int

	id      int // assigned when the cores start
	outCore int
	out     int // retrievable 32-bit words on success
	state   reqState
	tdAcked bool  // first TRANSFER_DONE (upload side) seen
	pending int   // cores still running
	code    uint8 // worst result code
	started sim.Time
	// doneAt records result arrival for latency metrics.
	doneAt sim.Time

	// Handlers, bound once per record: decode runs CostDispatch after the
	// issue, start CostParamWrite after the keys are staged, onResult on
	// each engaged core's result strobe, onKey and onKeyDone for the Key
	// Scheduler on a Key Cache miss.
	decode, start func()
	onResult      func(cryptocore.Result)
	onKey         func(*aes.Schedule)
	onKeyDone     func(error)

	next *request // free-list link
}

// cores returns the engaged core IDs, in task order.
func (r *request) cores() []int { return r.ids[:r.n] }

// cmdOp names the host instruction a command carries.
type cmdOp uint8

const (
	opOpen cmdOp = iota
	opClose
	opRetrieve
	opTransferDone
)

// command is one OPEN, CLOSE, RETRIEVE_DATA or TRANSFER_DONE between its
// issue on the control port and the cycle its handler runs: the Task
// Scheduler's argument registers. Commands are pooled per device, each with
// its handler bound once, so issuing one allocates nothing.
type command struct {
	m  *MCCP
	op cmdOp
	// arg is the channel (CLOSE) or request ID (TRANSFER_DONE).
	arg   int
	suite Suite // OPEN
	keyID int   // OPEN

	onOpen     func(ch int, err error)
	onErr      func(error) // CLOSE, TRANSFER_DONE
	onRetrieve func(Retrieval, error)

	run  func() // bound to exec
	next *command
}

// Assignment is what the ENCRYPT/DECRYPT done signal hands back to the
// communication controller: the request ID and the core mapping it needs
// to format and route the packet streams.
type Assignment struct {
	ReqID int
	// Tasks and CoreIDs are parallel: Tasks[i] runs on core CoreIDs[i].
	// For split CCM the CBC-MAC half is first, the CTR half second.
	//
	// Both are views of the device's request record. They stay valid until
	// that request's final TRANSFER_DONE, after which the record is reused:
	// a caller that needs them longer copies them.
	Tasks   []cryptocore.Task
	CoreIDs []int
}

// Retrieval is RETRIEVE_DATA's return value.
type Retrieval struct {
	ReqID    int
	Code     uint8 // firmware.ResultOK or ResultAuthFail
	OutCore  int
	OutWords int
	// Latency is dispatch-to-result in cycles (for the latency benches).
	Latency sim.Time
}

// MCCP is the device.
type MCCP struct {
	Eng   *sim.Engine
	Cfg   Config
	Cores []*cryptocore.Core
	// Caches holds each core's Key Cache.
	Caches   []*keysched.Cache
	XBar     *crossbar.Crossbar
	KeyMem   *keysched.KeyMemory
	KeySched *keysched.Scheduler
	// Engines tracks what occupies each core's reconfigurable region
	// (scheduler.EngineAES / EngineHash); internal/reconfig rewrites it.
	Engines []string
	// Reconfiguring marks cores whose region is being rewritten; the
	// scheduler treats them as busy.
	Reconfiguring []bool

	// OnDataAvailable is the Data Available interrupt line to the
	// communication controller (raised when the done queue becomes
	// non-empty).
	OnDataAvailable func()

	policy    scheduler.Policy
	channels  map[int]channel
	requests  map[int]*request
	nextCh    int
	nextReq   int
	allocated []bool // core allocation (held until TRANSFER_DONE)
	// doneQ is the done queue; doneHead its retrieved prefix (as with waitQ,
	// the backing array is reused, so queueing a result does not allocate).
	doneQ    []*request
	doneHead int
	// waitQ is the QoS request queue; waitHead its consumed prefix (the
	// backing array is reused instead of re-sliced away, keeping the
	// queue-cycle allocation-free).
	waitQ    []*request
	waitHead int
	viewsBuf []scheduler.CoreView // reused per dispatch (single-threaded)

	// freeReq and freeCmd head the request and command pools. They grow on
	// demand: New allocates neither.
	freeReq *request
	freeCmd *command

	// Stats aggregates device-level counters.
	Stats Stats
}

// Stats counts device activity. The three saturation outcomes are
// disjoint: Rejected is the paper's error flag (queueing disabled),
// Queued a request that waited in the QoS queue, Shed a request dropped
// because the bounded queue was full. internal/cluster aggregates the
// same three counters per shard, so the single-device and cluster views
// stay comparable.
type Stats struct {
	Opens, Submits, Retrieves uint64
	Rejected                  uint64 // error-flag returns (no resources)
	Queued                    uint64 // QoS extension: requests that waited
	Shed                      uint64 // QoS extension: bounded-queue drops
	AuthFails                 uint64
}

// New builds an MCCP. The cores are joined by a shift-register ring
// (core i's output mailbox feeds core i+1 mod N).
func New(eng *sim.Engine, cfg Config) *MCCP {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.FirstIdle{}
	}
	m := &MCCP{
		Eng:      eng,
		Cfg:      cfg,
		XBar:     crossbar.New(eng),
		KeyMem:   keysched.NewKeyMemory(),
		policy:   cfg.Policy,
		channels: make(map[int]channel),
		requests: make(map[int]*request),
		nextCh:   1,
		nextReq:  1,
	}
	m.KeySched = keysched.NewScheduler(eng, m.KeyMem)
	for i := 0; i < cfg.Cores; i++ {
		c := cryptocore.New(eng, i)
		m.Cores = append(m.Cores, c)
		m.Caches = append(m.Caches, keysched.NewCache())
		m.Engines = append(m.Engines, scheduler.EngineAES)
		m.Reconfiguring = append(m.Reconfiguring, false)
		m.allocated = append(m.allocated, false)
	}
	// Neighbouring cores are paired, as in the paper (each core "shares its
	// double port instruction memory with its right neighbouring
	// Cryptographic Core"); each pair is joined by a directional 4x32-bit
	// shift-register link in each direction. Two-core CCM uses the forward
	// link for the MAC and, on decryption, the reverse link to feed
	// recovered plaintext back to the CBC-MAC half.
	for i := 0; i+1 < cfg.Cores; i += 2 {
		fwd := sim.NewMailbox128(eng) // core i   -> core i+1
		rev := sim.NewMailbox128(eng) // core i+1 -> core i
		m.Cores[i].ConnectNeighbors(rev, fwd)
		m.Cores[i+1].ConnectNeighbors(fwd, rev)
	}
	return m
}

// views snapshots core state for the dispatch policy. The returned slice
// is reused across calls (the device is single-threaded and policies do
// not retain it).
func (m *MCCP) views(keyID int) []scheduler.CoreView {
	if m.viewsBuf == nil {
		m.viewsBuf = make([]scheduler.CoreView, len(m.Cores))
	}
	vs := m.viewsBuf
	for i := range m.Cores {
		vs[i] = scheduler.CoreView{
			ID:         i,
			Busy:       m.allocated[i] || m.Reconfiguring[i],
			HasKey:     m.Caches[i].Contains(keyID),
			Engine:     m.Engines[i],
			CachedKeys: m.Caches[i].Len(),
		}
	}
	return vs
}

func (m *MCCP) getReq() *request {
	r := m.freeReq
	if r == nil {
		r = &request{m: m}
		r.decode, r.start = r.decodeSubmit, r.startTasks
		r.onResult, r.onKey, r.onKeyDone = r.coreFinished, r.installKey, r.keyStaged
		return r
	}
	m.freeReq = r.next
	r.next = nil
	return r
}

// putReq returns a request record to the pool, cleared but for its bound
// handlers.
func (m *MCCP) putReq(r *request) {
	*r = request{m: m, decode: r.decode, start: r.start, onResult: r.onResult,
		onKey: r.onKey, onKeyDone: r.onKeyDone, next: m.freeReq}
	m.freeReq = r
}

// issue latches a host command and schedules its handler cost cycles on.
func (m *MCCP) issue(op cmdOp, cost sim.Time) *command {
	c := m.freeCmd
	if c == nil {
		c = &command{m: m}
		c.run = c.exec
	} else {
		m.freeCmd = c.next
		c.next = nil
	}
	c.op = op
	m.Eng.After(cost, c.run)
	return c
}

// exec runs a command's handler. The record goes back to the pool before
// the handler runs, so a command issued from a callback may reuse it.
func (c *command) exec() {
	m, op, arg, suite, keyID := c.m, c.op, c.arg, c.suite, c.keyID
	onOpen, onErr, onRetrieve := c.onOpen, c.onErr, c.onRetrieve
	*c = command{m: m, run: c.run, next: m.freeCmd}
	m.freeCmd = c
	switch op {
	case opOpen:
		m.open(suite, keyID, onOpen)
	case opClose:
		m.close(arg, onErr)
	case opRetrieve:
		m.retrieve(onRetrieve)
	case opTransferDone:
		m.transferDone(arg, onErr)
	}
}

// Open executes the OPEN instruction: it binds a channel to an algorithm
// suite and a session-key ID and returns the channel ID.
func (m *MCCP) Open(s Suite, keyID int, cb func(ch int, err error)) {
	c := m.issue(opOpen, CostOpen)
	c.suite, c.keyID, c.onOpen = s, keyID, cb
}

func (m *MCCP) open(s Suite, keyID int, cb func(ch int, err error)) {
	m.Stats.Opens++
	if s.Family != cryptocore.FamilyHash && !m.KeyMem.Has(keyID) {
		cb(0, fmt.Errorf("mccp: OPEN with unknown key ID %d", keyID))
		return
	}
	id := m.nextCh
	m.nextCh++
	m.channels[id] = channel{id: id, suite: s, keyID: keyID}
	cb(id, nil)
}

// Close executes the CLOSE instruction.
func (m *MCCP) Close(ch int, cb func(error)) {
	c := m.issue(opClose, CostClose)
	c.arg, c.onErr = ch, cb
}

func (m *MCCP) close(ch int, cb func(error)) {
	if _, ok := m.channels[ch]; !ok {
		cb(ErrBadChannel)
		return
	}
	delete(m.channels, ch)
	cb(nil)
}

// ChannelSuite reports an open channel's suite.
func (m *MCCP) ChannelSuite(ch int) (Suite, bool) {
	c, ok := m.channels[ch]
	return c.suite, ok
}

// Submit executes an ENCRYPT or DECRYPT instruction: plan the packet,
// select cores, stage keys, write parameters and start the firmware. The
// done signal delivers the Assignment the communication controller needs
// to upload the packet streams.
//
// With QueueRequests disabled this behaves exactly like the paper: if no
// suitable core is idle the error flag (ErrNoResources) comes back.
func (m *MCCP) Submit(ch int, encrypt bool, aadLen, dataLen int, cb func(Assignment, error)) {
	r := m.getReq()
	r.chID, r.encrypt, r.aadLen, r.dataLen, r.cb = ch, encrypt, aadLen, dataLen, cb
	m.Eng.After(CostDispatch, r.decode)
}

// decodeSubmit is the ENCRYPT/DECRYPT handler, CostDispatch after the issue.
func (r *request) decodeSubmit() {
	m := r.m
	c, ok := m.channels[r.chID]
	if !ok {
		m.refuse(r, ErrBadChannel)
		return
	}
	m.Stats.Submits++
	r.ch = c
	m.tryDispatch(r, true)
}

// refuse ends a request that never started: its record is recycled and
// the done signal carries err.
func (m *MCCP) refuse(r *request, err error) {
	cb := r.cb
	m.putReq(r)
	cb(Assignment{}, err)
}

func (m *MCCP) tryDispatch(r *request, fresh bool) {
	s := &r.ch.suite
	var err error
	r.plan, err = cryptocore.PlanTasks(s.Family, r.encrypt, s.SplitCCM, r.aadLen, r.dataLen, s.TagLen)
	if err != nil {
		m.refuse(r, err)
		return
	}
	req := scheduler.Request{
		Family:    s.Family,
		WantSplit: s.SplitCCM && len(r.plan.Tasks()) == 2,
		KeyID:     r.ch.keyID,
		Priority:  s.Priority,
	}
	ids := m.policy.Pick(req, m.views(r.ch.keyID))
	if ids == nil {
		if m.Cfg.QueueRequests {
			// Only fresh submissions are shed: a request re-tried from the
			// queue by pump keeps its admission.
			if fresh && m.Cfg.MaxQueue > 0 && len(m.waitQ)-m.waitHead >= m.Cfg.MaxQueue {
				m.Stats.Shed++
				m.refuse(r, ErrQueueFull)
				return
			}
			m.Stats.Queued++
			m.enqueue(r)
			return
		}
		m.Stats.Rejected++
		m.refuse(r, ErrNoResources)
		return
	}
	// The policy may have downgraded a split request to one core.
	if len(ids) == 1 && len(r.plan.Tasks()) == 2 {
		r.plan, err = cryptocore.PlanTasks(s.Family, r.encrypt, false, r.aadLen, r.dataLen, s.TagLen)
		if err != nil {
			m.refuse(r, err)
			return
		}
	}
	r.n = copy(r.ids[:], ids)
	for _, id := range r.cores() {
		m.allocated[id] = true
	}
	m.stageFrom(r, 0)
}

func (m *MCCP) enqueue(r *request) {
	// Priority queue: higher priority first, FIFO within a priority. The
	// live window is waitQ[waitHead:]; the consumed prefix is reused.
	at := len(m.waitQ)
	for i := m.waitHead; i < len(m.waitQ); i++ {
		if r.ch.suite.Priority > m.waitQ[i].ch.suite.Priority {
			at = i
			break
		}
	}
	m.waitQ = append(m.waitQ, nil)
	copy(m.waitQ[at+1:], m.waitQ[at:])
	m.waitQ[at] = r
}

// stageFrom loads round keys into the Key Cache of every engaged core from
// the i-th on, then starts the firmware. A Key Cache miss leaves the loop:
// the Key Scheduler fills that core's cache and resumes staging at the
// next core (installKey, keyStaged).
func (m *MCCP) stageFrom(r *request, i int) {
	for ; i < r.n; i++ {
		if r.ch.suite.Family == cryptocore.FamilyHash {
			// Hashing needs no key material.
			break
		}
		coreID := r.ids[i]
		if sched, ok := m.Caches[coreID].Get(r.ch.keyID); ok {
			// Cache hit: the engine reads round keys straight from the
			// core's Key Cache block RAM, no extra latency.
			m.Cores[coreID].InstallAESKeys(sched)
			continue
		}
		r.staging = i
		m.KeySched.Prepare(r.ch.keyID, r.onKey, r.onKeyDone)
		return
	}
	m.startCores(r)
}

// installKey stages the Key Scheduler's expansion into the missing core.
func (r *request) installKey(sched *aes.Schedule) {
	coreID := r.ids[r.staging]
	r.m.Caches[coreID].Put(r.ch.keyID, sched)
	r.m.Cores[coreID].InstallAESKeys(sched)
}

// keyStaged resumes staging after a Key Scheduler job; on its failure the
// cores are released and the request refused.
func (r *request) keyStaged(err error) {
	m := r.m
	if err != nil {
		for _, id := range r.cores() {
			m.allocated[id] = false
		}
		m.refuse(r, err)
		return
	}
	m.stageFrom(r, r.staging+1)
}

// startCores numbers the request and, CostParamWrite later, writes task
// parameters and strobes start on every engaged core (startTasks).
func (m *MCCP) startCores(r *request) {
	r.id = m.nextReq
	m.nextReq++
	r.outCore = r.ids[r.n-1] // single core, or the CTR half of a split
	r.out = cryptocore.OutWords(r.plan.Last())
	r.pending = r.n
	r.started = m.Eng.Now()
	m.requests[r.id] = r
	m.Eng.After(CostParamWrite, r.start)
}

// startTasks starts the firmware on every engaged core, then signals the
// ENCRYPT/DECRYPT done with the Assignment.
func (r *request) startTasks() {
	m := r.m
	tasks := r.plan.Tasks()
	for i, id := range r.cores() {
		m.Cores[id].Start(tasks[i], r.onResult)
	}
	cb := r.cb
	r.cb = nil
	cb(Assignment{ReqID: r.id, Tasks: tasks, CoreIDs: r.cores()}, nil)
}

// coreFinished collects per-core results; when every engaged core is done
// the request enters the done queue and the Data Available interrupt is
// raised.
func (r *request) coreFinished(res cryptocore.Result) {
	m := r.m
	if res.Code > r.code {
		r.code = res.Code
	}
	r.pending--
	if r.pending > 0 {
		return
	}
	r.state = reqDoneQueued
	r.doneAt = m.Eng.Now()
	if r.code != 0 {
		m.Stats.AuthFails++
	}
	// Requests whose last result strobe falls in the same cycle enter the
	// done queue in output-core order, the fixed priority of a hardware
	// arbiter: the order in which the engine happens to run the cores'
	// same-cycle events is not part of the model (see package sim).
	if m.doneHead > 0 && len(m.doneQ) == cap(m.doneQ) {
		n := copy(m.doneQ, m.doneQ[m.doneHead:])
		clear(m.doneQ[n:])
		m.doneQ, m.doneHead = m.doneQ[:n], 0
	}
	at := len(m.doneQ)
	for at > m.doneHead && m.doneQ[at-1].doneAt == r.doneAt && m.doneQ[at-1].outCore < r.outCore {
		at--
	}
	m.doneQ = slices.Insert(m.doneQ, at, r)
	if len(m.doneQ)-m.doneHead == 1 && m.OnDataAvailable != nil {
		m.Eng.After(CostIRQ, m.OnDataAvailable)
	}
}

// DataAvailable reports whether RETRIEVE_DATA would succeed (the level of
// the interrupt line).
func (m *MCCP) DataAvailable() bool { return len(m.doneQ) > m.doneHead }

// RetrieveData executes the RETRIEVE_DATA instruction: it pops the oldest
// completed request, returns OK or AUTH_FAIL plus the request ID, and (on
// OK) configures the Cross Bar for reading that core's output FIFO.
func (m *MCCP) RetrieveData(cb func(Retrieval, error)) {
	m.issue(opRetrieve, CostRetrieve).onRetrieve = cb
}

func (m *MCCP) retrieve(cb func(Retrieval, error)) {
	if !m.DataAvailable() {
		cb(Retrieval{}, ErrNoData)
		return
	}
	req := m.doneQ[m.doneHead]
	m.doneQ[m.doneHead] = nil
	if m.doneHead++; m.doneHead == len(m.doneQ) {
		m.doneQ, m.doneHead = m.doneQ[:0], 0
	}
	req.state = reqRetrieved
	m.Stats.Retrieves++
	out := 0
	if req.code == 0 {
		out = req.out
	}
	cb(Retrieval{
		ReqID:    req.id,
		Code:     req.code,
		OutCore:  req.outCore,
		OutWords: out,
		Latency:  req.doneAt - req.started,
	}, nil)
}

// TransferDone executes the TRANSFER_DONE instruction. The first call (after
// upload) is bookkeeping; the final call (after download, or after an
// ENCRYPT/DECRYPT whose data the controller abandoned) releases the cores
// and retires the request, letting queued requests dispatch.
func (m *MCCP) TransferDone(reqID int, cb func(error)) {
	c := m.issue(opTransferDone, CostTransferDone)
	c.arg, c.onErr = reqID, cb
}

func (m *MCCP) transferDone(reqID int, cb func(error)) {
	req, ok := m.requests[reqID]
	if !ok {
		cb(fmt.Errorf("mccp: TRANSFER_DONE for unknown request %d", reqID))
		return
	}
	if !req.tdAcked {
		// Upload-side acknowledgement; the download side (or the
		// abandon-after-AUTH_FAIL path) releases the cores.
		req.tdAcked = true
		cb(nil)
		return
	}
	delete(m.requests, reqID)
	for _, id := range req.cores() {
		m.allocated[id] = false
	}
	// A request retired before its retrieval is still in the done queue,
	// or still running: it is left to the collector, not recycled.
	if req.state == reqRetrieved {
		m.putReq(req)
	}
	cb(nil)
	m.pump()
}

// pump retries queued requests after resources free up (QoS extension).
func (m *MCCP) pump() {
	if m.waitHead == len(m.waitQ) {
		if m.waitHead > 0 {
			m.waitQ = m.waitQ[:0]
			m.waitHead = 0
		}
		return
	}
	// Try in priority order; stop at the first that still cannot dispatch
	// (strict priority, no bypass).
	w := m.waitQ[m.waitHead]
	req := scheduler.Request{
		Family:    w.ch.suite.Family,
		WantSplit: w.ch.suite.SplitCCM,
		KeyID:     w.ch.keyID,
		Priority:  w.ch.suite.Priority,
	}
	if m.policy.Pick(req, m.views(w.ch.keyID)) == nil {
		return
	}
	m.waitQ[m.waitHead] = nil
	m.waitHead++
	m.tryDispatch(w, false)
}

// WriteToCore streams words into a core's input FIFO through the Cross Bar
// (one 32-bit word per cycle, one core at a time).
func (m *MCCP) WriteToCore(coreID int, words []uint32, done func()) {
	m.WriteToCorePrio(coreID, words, 0, done)
}

// WriteToCorePrio is WriteToCore with a QoS priority on the Cross Bar
// grant, so a high-priority packet's upload never queues behind a backlog
// of bulk transfers.
func (m *MCCP) WriteToCorePrio(coreID int, words []uint32, prio int, done func()) {
	m.XBar.WriteFIFOPrio(m.Cores[coreID].In, words, prio, done)
}

// ReadFromCore drains n words from a core's output FIFO through the Cross
// Bar.
func (m *MCCP) ReadFromCore(coreID int, n int, done func([]uint32)) {
	m.ReadFromCorePrio(coreID, n, 0, done)
}

// ReadFromCorePrio is ReadFromCore with a QoS priority on the Cross Bar
// grant.
func (m *MCCP) ReadFromCorePrio(coreID int, n, prio int, done func([]uint32)) {
	m.XBar.ReadFIFOPrio(m.Cores[coreID].Out, n, prio, done)
}
