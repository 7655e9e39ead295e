// Package server puts a network service boundary in front of
// internal/cluster: the paper's control protocol (§III.C — OPEN, CLOSE,
// ENCRYPT, DECRYPT, RETRIEVE_DATA) carried as length-prefixed binary
// frames over any net.Conn, so the sharded MCCP simulation becomes a
// server that concurrent remote callers share.
//
// The architecture mirrors the MerkleBatcher coalescing shape: every
// connection's reader decodes frames onto one bounded request channel; a
// single batcher goroutine — the only caller of the cluster front end,
// honoring its single-caller contract — owns session state and coalesces
// requests into per-shard ring submissions, flushing on a size trigger,
// an explicit FLUSH frame, or an optional wall-clock deadline. Each
// ENCRYPT/DECRYPT response carries a per-request timing struct: the
// shard-side service latency in virtual cycles plus the wall-clock
// enqueue→flush and flush→complete intervals.
//
// Admission maps the cluster's existing verdicts onto protocol status
// codes (Rejected/Shed/Expired/Aged/AuthFail...), so overload behavior on
// the wire is exactly the QoS story the in-process experiments specify.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mccp/internal/bufpool"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// Frame layout: a uint32 big-endian body length, then the body. Request
// bodies are op(u8) reqID(u64) payload; response bodies are op(u8)
// reqID(u64) status(u8) payload. MaxFrame bounds a body so a corrupt
// length prefix cannot allocate unboundedly.
const MaxFrame = 1 << 24

// Op is a protocol opcode (the paper's §III.C control commands;
// RETRIEVE_DATA returns the server's statistics report).
type Op uint8

const (
	OpOpen     Op = 1
	OpClose    Op = 2
	OpEncrypt  Op = 3
	OpDecrypt  Op = 4
	OpRetrieve Op = 5
	// OpFlush is a service extension: it forces the batcher to flush and
	// its acknowledgement doubles as a sync barrier — when the reply
	// arrives, every earlier request on the connection has been answered.
	OpFlush Op = 6
	// OpStats is a service extension: it returns the server's metrics
	// registry rendered in Prometheus text exposition format — the same
	// bytes the HTTP /metrics endpoint serves, readable by clients that
	// only speak the frame protocol. (RETRIEVE_DATA stays the binary
	// statistics report; STATS is the human/scraper view.)
	OpStats Op = 7

	// opConnClosed is internal: the reader injects it when a connection
	// dies so the batcher reclaims the connection's sessions in request
	// order.
	opConnClosed Op = 255
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "OPEN"
	case OpClose:
		return "CLOSE"
	case OpEncrypt:
		return "ENCRYPT"
	case OpDecrypt:
		return "DECRYPT"
	case OpRetrieve:
		return "RETRIEVE_DATA"
	case OpFlush:
		return "FLUSH"
	case OpStats:
		return "STATS"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is a protocol response code. The low codes are the shared
// verdict.Verdict values verbatim (Status(v) is the whole mapping — see
// statusFor); the codes past StatusFailed are wire-only conditions with
// no in-process counterpart.
type Status uint8

const (
	StatusOK                  = Status(verdict.OK)       // 0
	StatusRejected            = Status(verdict.Rejected) // 1: paper's error flag: no idle core / queue full with queueing off
	StatusShed                = Status(verdict.Shed)     // 2: QoS bounded class queue overflow
	StatusExpired             = Status(verdict.Expired)  // 3: deadline passed while queued
	StatusAged                = Status(verdict.Aged)     // 4: in-queue sojourn exceeded the age limit
	StatusAuthFail            = Status(verdict.AuthFail) // 5: DECRYPT tag verification failed
	StatusFailed              = Status(verdict.Failed)   // 6: any other device error
	StatusBadRequest   Status = 7                        // malformed frame or unsupported parameters
	StatusUnknownSess  Status = 8                        // session id never opened on this connection
	StatusSessClosed   Status = 9                        // session already closed (double CLOSE, use after CLOSE)
	StatusShuttingDown Status = 10
)

func (s Status) String() string {
	if int(s) < verdict.Num {
		return verdict.Verdict(s).String()
	}
	switch s {
	case StatusBadRequest:
		return "bad-request"
	case StatusUnknownSess:
		return "unknown-session"
	case StatusSessClosed:
		return "session-closed"
	case StatusShuttingDown:
		return "shutting-down"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// statusFor maps a cluster operation error to its protocol status: the
// shared verdict value IS the status code, so the mapping is a cast of
// the one classifier in internal/verdict (no second switch to keep in
// sync with the cluster's counters).
func statusFor(err error) Status { return Status(verdict.For(err)) }

// Timing is the per-request timing struct an ENCRYPT/DECRYPT response
// carries back to its caller.
type Timing struct {
	// WireCycles is the shard-side service latency in virtual cycles:
	// from the start of the batch that carried the request to the
	// request's completion (or verdict) on the shard's timeline. It is
	// deterministic — a pure function of the request sequence.
	WireCycles sim.Time
	// QueueNs and ServiceNs split the host wall-clock path:
	// enqueue→flush (batching wait) and flush→complete. Both are
	// wall-clock measurements and therefore nondeterministic.
	QueueNs   uint64
	ServiceNs uint64
}

// Stats is the RETRIEVE_DATA report: the server's wire-level view plus
// the cluster snapshot underneath it.
type Stats struct {
	SessionsOpen   uint64
	SessionsOpened uint64
	// Verdicts counts every answered ENCRYPT/DECRYPT by response status
	// (index = Status value, StatusOK..StatusShuttingDown).
	Verdicts [11]uint64
	BytesIn  uint64
	BytesOut uint64
	// ClusterCycles is the slowest shard's virtual time.
	ClusterCycles sim.Time
	// Per-class wire service latency (shard-side cycles), highest
	// priority first: count of samples, p50 and p99.
	Classes [qos.NumClasses]ClassWire
	// Digests are the per-shard FNV-64a folds of every delivered output
	// byte in delivery order — the batch-boundary-independent fingerprint
	// the determinism guard compares against an in-process run.
	Digests []uint64
}

// ClassWire is one class's wire service-latency summary.
type ClassWire struct {
	Count    uint64
	P50, P99 sim.Time
}

// appendFrame appends a length-prefixed frame holding body to dst.
func appendFrame(dst, body []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(body)))
	dst = append(dst, l[:]...)
	return append(dst, body...)
}

// readFrame reads one length-prefixed frame body, reusing buf when large
// enough. The prefix is read in place (Peek, then Discard), so nothing
// escapes to the heap per frame; a prefix over MaxFrame fails before buf
// grows. A stream that ends between frames fails with io.EOF, one that
// ends inside a frame with io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	l, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(l) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(l)
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds MaxFrame", n)
	}
	_, _ = r.Discard(4) // cannot fail: Peek just buffered the four bytes
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// cursor is a sticky-error reader over a frame body.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) u8() uint8 {
	if c.bad || len(c.b) < 1 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u16() uint16 {
	if c.bad || len(c.b) < 2 {
		c.bad = true
		return 0
	}
	v := binary.BigEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.bad || len(c.b) < 4 {
		c.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.bad || len(c.b) < 8 {
		c.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.bad || n < 0 || len(c.b) < n {
		c.bad = true
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func putU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func putU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func putU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// request is one decoded frame plus delivery bookkeeping, owned by the
// batcher once pushed onto the request channel. Records are recycled
// through the server's requestPool: a connection reader takes one per
// frame, and the batcher returns it once the response is queued.
type request struct {
	op    Op
	reqID uint64
	conn  *conn

	// OPEN fields.
	family   uint8
	keyLen   uint8
	tagLen   uint8
	class    qos.Class
	weight   uint16
	deadline sim.Time

	// Packet fields (ENCRYPT/DECRYPT). nonce, aad, data and tag are
	// slices of buf, the record's own copy of the packet body (the
	// reader's frame buffer is reused); buf outlives the record's uses, so
	// a warm record copies without allocating.
	sess  uint64
	nonce []byte
	aad   []byte
	data  []byte
	tag   []byte
	buf   []byte

	// Packet dispatch (set by the batcher): the session's shard and class
	// (in the OPEN field above), the server's flushSeq when the packet was
	// queued, and done, the record's completion bound once to it
	// (request.complete).
	shard    int
	flushSeq uint64
	done     func([]byte, sim.Time, error)

	enq int64 // UnixNano at decode (wall clock)

	// malformed marks an undecodable body; the batcher answers
	// BadRequest with whatever op/reqID prefix parsed.
	malformed bool
}

// encodeOpen builds an OPEN request body.
func encodeOpen(dst []byte, reqID uint64, spec OpenRequest) []byte {
	dst = append(dst, byte(OpOpen))
	dst = putU64(dst, reqID)
	dst = append(dst, byte(spec.Family), byte(spec.KeyLen), byte(spec.TagLen), byte(spec.Class))
	dst = putU16(dst, uint16(spec.Weight))
	dst = putU64(dst, uint64(spec.Deadline))
	return dst
}

// encodePacket builds an ENCRYPT or DECRYPT request body (tag only for
// DECRYPT).
func encodePacket(dst []byte, op Op, reqID, sess uint64, nonce, aad, data, tag []byte) []byte {
	dst = append(dst, byte(op))
	dst = putU64(dst, reqID)
	dst = putU64(dst, sess)
	dst = append(dst, byte(len(nonce)))
	dst = append(dst, nonce...)
	dst = putU16(dst, uint16(len(aad)))
	dst = append(dst, aad...)
	dst = putU32(dst, uint32(len(data)))
	dst = append(dst, data...)
	if op == OpDecrypt {
		dst = append(dst, byte(len(tag)))
		dst = append(dst, tag...)
	}
	return dst
}

// decodeRequest parses a request frame body into req. It returns false
// (leaving req.op/reqID set when parseable) on a malformed body.
func decodeRequest(body []byte, req *request) bool {
	c := cursor{b: body}
	req.op = Op(c.u8())
	req.reqID = c.u64()
	switch req.op {
	case OpOpen:
		req.family = c.u8()
		req.keyLen = c.u8()
		req.tagLen = c.u8()
		req.class = qos.Class(c.u8())
		req.weight = c.u16()
		req.deadline = sim.Time(c.u64())
	case OpClose:
		req.sess = c.u64()
	case OpEncrypt, OpDecrypt:
		req.sess = c.u64()
		req.buf = append(req.buf[:0], c.b...)
		c.b = req.buf
		req.nonce = c.bytes(int(c.u8()))
		req.aad = c.bytes(int(c.u16()))
		req.data = c.bytes(int(c.u32()))
		if req.op == OpDecrypt {
			req.tag = c.bytes(int(c.u8()))
		}
	case OpRetrieve, OpFlush, OpStats:
	default:
		return false
	}
	return !c.bad && len(c.b) == 0
}

// Response is one decoded response frame.
type Response struct {
	Op     Op
	ReqID  uint64
	Status Status
	// OPEN: the wire session id. ENCRYPT/DECRYPT: the timing struct and
	// (on OK) the output bytes. FLUSH: Flushed, the operations dispatched
	// by the barrier. RETRIEVE_DATA: Stats. Errors carry Msg when the
	// server attached one.
	Session uint64
	Timing  Timing
	Out     []byte
	Flushed uint32
	Stats   *Stats
	Msg     string
}

// Err converts a non-OK response into an error (nil when Status is OK).
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	if r.Msg != "" {
		return fmt.Errorf("server: %s: %s (%s)", r.Op, r.Status, r.Msg)
	}
	return fmt.Errorf("server: %s: %s", r.Op, r.Status)
}

// respHeaderLen is a response body's fixed prefix: op(u8) reqID(u64)
// status(u8).
const respHeaderLen = 1 + 8 + 1

func respHeader(dst []byte, op Op, reqID uint64, st Status) []byte {
	dst = append(dst, byte(op))
	dst = putU64(dst, reqID)
	dst = append(dst, byte(st))
	return dst
}

// encodeMsgResp builds an OPEN/CLOSE-shaped response: header, session id
// (OPEN only carries a meaningful one), then a u16-length message.
func encodeMsgResp(op Op, reqID uint64, st Status, sess uint64, msg string) []byte {
	dst := respHeader(make([]byte, 0, respHeaderLen+8+2+len(msg)), op, reqID, st)
	dst = putU64(dst, sess)
	dst = putU16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return dst
}

// encodePacketResp builds an ENCRYPT/DECRYPT response: header, timing,
// output. The body is a bufpool buffer, which the connection's writer
// recycles once it is written.
func encodePacketResp(op Op, reqID uint64, st Status, t Timing, out []byte) []byte {
	dst := respHeader(bufpool.Bytes(respHeaderLen+24+4+len(out)), op, reqID, st)
	dst = putU64(dst, uint64(t.WireCycles))
	dst = putU64(dst, t.QueueNs)
	dst = putU64(dst, t.ServiceNs)
	dst = putU32(dst, uint32(len(out)))
	dst = append(dst, out...)
	return dst
}

func encodeFlushResp(reqID uint64, st Status, flushed uint32) []byte {
	dst := respHeader(make([]byte, 0, respHeaderLen+4), OpFlush, reqID, st)
	return putU32(dst, flushed)
}

// encodeTextResp builds a STATS response: header then a u32-length text
// payload (metrics expositions outgrow the u16 message field).
func encodeTextResp(reqID uint64, st Status, text []byte) []byte {
	dst := respHeader(make([]byte, 0, respHeaderLen+4+len(text)), OpStats, reqID, st)
	dst = putU32(dst, uint32(len(text)))
	return append(dst, text...)
}

func encodeStatsResp(reqID uint64, st *Stats) []byte {
	n := 8 * (5 + len(st.Verdicts) + 3*len(st.Classes) + len(st.Digests))
	dst := respHeader(make([]byte, 0, respHeaderLen+n+1), OpRetrieve, reqID, StatusOK)
	dst = putU64(dst, st.SessionsOpen)
	dst = putU64(dst, st.SessionsOpened)
	for _, v := range st.Verdicts {
		dst = putU64(dst, v)
	}
	dst = putU64(dst, st.BytesIn)
	dst = putU64(dst, st.BytesOut)
	dst = putU64(dst, uint64(st.ClusterCycles))
	for _, cw := range st.Classes {
		dst = putU64(dst, cw.Count)
		dst = putU64(dst, uint64(cw.P50))
		dst = putU64(dst, uint64(cw.P99))
	}
	dst = append(dst, byte(len(st.Digests)))
	for _, d := range st.Digests {
		dst = putU64(dst, d)
	}
	return dst
}

// DecodeResponse parses a response frame body.
func DecodeResponse(body []byte) (Response, error) {
	c := cursor{b: body}
	r := Response{Op: Op(c.u8()), ReqID: c.u64(), Status: Status(c.u8())}
	switch r.Op {
	case OpOpen, OpClose:
		r.Session = c.u64()
		r.Msg = string(c.bytes(int(c.u16())))
	case OpEncrypt, OpDecrypt:
		r.Timing.WireCycles = sim.Time(c.u64())
		r.Timing.QueueNs = c.u64()
		r.Timing.ServiceNs = c.u64()
		out := c.bytes(int(c.u32()))
		if len(out) > 0 {
			r.Out = append([]byte(nil), out...)
		}
	case OpFlush:
		r.Flushed = c.u32()
	case OpStats:
		out := c.bytes(int(c.u32()))
		if len(out) > 0 {
			r.Out = append([]byte(nil), out...)
		}
	case OpRetrieve:
		st := &Stats{}
		st.SessionsOpen = c.u64()
		st.SessionsOpened = c.u64()
		for i := range st.Verdicts {
			st.Verdicts[i] = c.u64()
		}
		st.BytesIn = c.u64()
		st.BytesOut = c.u64()
		st.ClusterCycles = sim.Time(c.u64())
		for i := range st.Classes {
			st.Classes[i].Count = c.u64()
			st.Classes[i].P50 = sim.Time(c.u64())
			st.Classes[i].P99 = sim.Time(c.u64())
		}
		st.Digests = make([]uint64, c.u8())
		for i := range st.Digests {
			st.Digests[i] = c.u64()
		}
		r.Stats = st
	default:
		return r, fmt.Errorf("server: response with unknown opcode %d", uint8(r.Op))
	}
	if c.bad || len(c.b) != 0 {
		return r, fmt.Errorf("server: truncated %s response", r.Op)
	}
	return r, nil
}

// OpenRequest parameterizes a wire OPEN: algorithm family and key/tag
// sizes (the cluster validates key length), the QoS class, the routing
// weight (default 1) and a relative virtual-time deadline budget applied
// to every ENCRYPT on the session (0 = none).
type OpenRequest struct {
	Family   cryptocore.Family
	KeyLen   int
	TagLen   int
	Class    qos.Class
	Weight   int
	Deadline sim.Time
}
