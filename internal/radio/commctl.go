package radio

import (
	"fmt"

	"mccp/internal/bits"
	"mccp/internal/bufpool"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/firmware"
	"mccp/internal/modes"
	"mccp/internal/obs"
	"mccp/internal/whirlpool"
)

// CommController is the platform's communication controller (paper §III.A):
// it owns the MCCP control port, formats packets per the mode-of-operation
// specifications, streams them through the Cross Bar, services the Data
// Available interrupt and reassembles results.
//
// Result buffers handed to completion callbacks come from bufpool: a
// consumer that is done with one may recycle it with bufpool.PutBytes
// (the cluster workload drivers do); retaining it is equally safe — a
// buffer is never recycled behind the callback's back.
type CommController struct {
	dev *core.MCCP

	// inflight tracks requests between dispatch and retrieval; freeReq
	// heads the request pool (requests carry prebuilt callbacks, so the
	// steady-state packet path does not allocate here).
	inflight map[int]*inflightReq
	freeReq  *inflightReq
	draining bool

	// Current retrieval state. The drain loop is strictly serialized
	// (retrieve -> read -> transfer-done -> next), so a single set of
	// fields plus prebuilt continuations replaces a closure chain per
	// packet.
	cur     *inflightReq
	curR    core.Retrieval
	pendOut []byte
	pendErr error

	onRetrieve func(core.Retrieval, error)
	onWords    func([]uint32)
	onTD       func(error)

	// Completions counts packets fully round-tripped.
	Completions uint64

	// tr is the lifecycle tracer shared with the shaper above (nil =
	// untraced). The controller only marks stage boundaries — assignment,
	// upload complete, retrieval — on the span the shaper parked; the
	// shaper ends the span when the completion callback unwinds.
	tr *obs.Tracer
}

// SetTracer attaches the lifecycle tracer (shared with the shaper that
// drives this controller).
func (cc *CommController) SetTracer(t *obs.Tracer) { cc.tr = t }

type inflightReq struct {
	// suite is the channel's (its Priority is the QoS priority of both
	// crossbar grants).
	suite      core.Suite
	encrypt    bool
	dataLen    int
	dataBlocks int
	cb         func([]byte, error)

	// The packet as submitted, parked until the device assigns cores
	// (onAssign, prebuilt) and the streams are formatted.
	nonce, aad, data, tag []byte
	onAssign              func(core.Assignment, error)

	// Upload bookkeeping: remaining counts core streams still being
	// written; wordBufs holds their pooled word staging buffers until the
	// upload completes; onWrite is the prebuilt per-stream completion.
	cc        *CommController
	reqID     int
	remaining int
	wordBufs  [2][]uint32
	onWrite   func()

	// span is the packet's trace span, claimed from the shaper at submit
	// (obs.NoSpan when untraced).
	span obs.SpanRef

	next *inflightReq // pool link
}

// ErrAuth mirrors modes.ErrAuth for the device path.
var ErrAuth = modes.ErrAuth

// nopErr absorbs protocol acknowledgements nobody waits on.
var nopErr = func(error) {}

// NewCommController wires a controller to the device's interrupt line.
func NewCommController(dev *core.MCCP) *CommController {
	cc := &CommController{
		dev:      dev,
		inflight: make(map[int]*inflightReq),
	}
	dev.OnDataAvailable = cc.drain
	cc.onRetrieve = cc.retrieved
	cc.onWords = cc.assembleAndFinish
	cc.onTD = cc.transferDone
	return cc
}

func (cc *CommController) getReq() *inflightReq {
	req := cc.freeReq
	if req == nil {
		req = &inflightReq{cc: cc}
		req.onWrite, req.onAssign = req.streamWritten, req.assigned
		return req
	}
	cc.freeReq = req.next
	req.next = nil
	return req
}

func (cc *CommController) putReq(req *inflightReq) {
	req.cb = nil
	req.nonce, req.aad, req.data, req.tag = nil, nil, nil, nil
	req.span = obs.NoSpan
	req.next = cc.freeReq
	cc.freeReq = req
}

// streamWritten fires when one core stream's upload transfer completes;
// the last one recycles the word buffers and acknowledges the upload.
func (req *inflightReq) streamWritten() {
	req.remaining--
	if req.remaining > 0 {
		return
	}
	for i, w := range req.wordBufs {
		if w != nil {
			bufpool.PutWords(w)
			req.wordBufs[i] = nil
		}
	}
	req.cc.tr.MarkNow(req.span, obs.MarkUpload)
	req.cc.dev.TransferDone(req.reqID, nopErr)
}

// OpenChannel opens an MCCP channel. The controller formats the
// channel's packets by the suite the device holds for it.
func (cc *CommController) OpenChannel(s core.Suite, keyID int, cb func(ch int, err error)) {
	cc.dev.Open(s, keyID, cb)
}

// CloseChannel closes an MCCP channel.
func (cc *CommController) CloseChannel(ch int, cb func(error)) {
	cc.dev.Close(ch, cb)
}

// Encrypt protects one packet on channel ch. cb receives ciphertext||tag
// (GCM/CCM), the transformed data (CTR) or the MAC (CBC-MAC). nonce is the
// 12-byte GCM IV, the 13-byte CCM nonce, the full 16-byte initial counter
// block for CTR, and unused for CBC-MAC.
func (cc *CommController) Encrypt(ch int, nonce, aad, payload []byte, cb func([]byte, error)) {
	cc.submit(ch, true, nonce, aad, payload, nil, cb)
}

// Decrypt verifies and recovers one packet. For GCM/CCM, ct and tag are
// the ciphertext and the received tag; cb receives the plaintext or ErrAuth.
func (cc *CommController) Decrypt(ch int, nonce, aad, ct, tag []byte, cb func([]byte, error)) {
	cc.submit(ch, false, nonce, aad, ct, tag, cb)
}

func (cc *CommController) submit(ch int, encrypt bool, nonce, aad, payload, tag []byte, cb func([]byte, error)) {
	// Claim the span the shaper parked before invoking us — at the very
	// top, so an early error return can never leave a stale reference for
	// the next submission to pick up. Errors surface through cb and are
	// ended by the layer that started the span.
	span := cc.tr.TakePending()
	s, ok := cc.dev.ChannelSuite(ch)
	if !ok {
		cb(nil, fmt.Errorf("radio: channel %d not open on this controller", ch))
		return
	}
	req := cc.getReq()
	req.suite, req.encrypt, req.cb, req.span = s, encrypt, cb, span
	req.nonce, req.aad, req.data, req.tag = nonce, aad, payload, tag
	cc.dev.Submit(ch, encrypt, len(aad), len(payload), req.onAssign)
}

// assigned receives the ENCRYPT/DECRYPT done signal (prebuilt as
// onAssign): it formats the parked packet for the assigned cores and
// streams it through the Cross Bar.
func (req *inflightReq) assigned(a core.Assignment, err error) {
	cc := req.cc
	if err != nil {
		req.fail(err)
		return
	}
	cc.tr.MarkNow(req.span, obs.MarkAssign)
	s := req.suite
	streams, nstreams, err := cc.streamsFor(a, s, req.encrypt, req.nonce, req.aad, req.data, req.tag)
	if err != nil {
		req.fail(err)
		return
	}
	req.dataLen = len(req.data)
	req.nonce, req.aad, req.data, req.tag = nil, nil, nil, nil
	req.dataBlocks = int(a.Tasks[len(a.Tasks)-1].DataBlocks)
	req.reqID = a.ReqID
	req.remaining = nstreams
	cc.inflight[a.ReqID] = req
	// Stream every engaged core's input through the Cross Bar at the
	// channel's QoS priority, then acknowledge the upload with the
	// first TRANSFER_DONE. Each stream's staged blocks are recycled as
	// soon as they are converted to words; the word buffers when the
	// upload completes.
	if nstreams == 0 {
		cc.tr.MarkNow(req.span, obs.MarkUpload)
		cc.dev.TransferDone(a.ReqID, nopErr)
		return
	}
	for i := 0; i < nstreams; i++ {
		words := blocksToWords(streams[i])
		bufpool.PutBlocks(streams[i])
		req.wordBufs[i] = words
		cc.dev.WriteToCorePrio(a.CoreIDs[i], words, s.Priority, req.onWrite)
	}
}

// fail ends a packet that never reached the upload: its record is
// recycled and cb gets err.
func (req *inflightReq) fail(err error) {
	cb := req.cb
	req.cc.putReq(req)
	cb(nil, err)
}

// streamsFor builds each engaged core's input FIFO stream for the
// scheduler's chosen mapping. The returned streams are pooled block
// buffers owned by the caller.
func (cc *CommController) streamsFor(a core.Assignment, s core.Suite, encrypt bool, nonce, aad, payload, tag []byte) (streams [2][]bits.Block, n int, err error) {
	one := func(f Frame, e error) ([2][]bits.Block, int, error) {
		return [2][]bits.Block{f.In}, 1, e
	}
	switch a.Tasks[0].Mode {
	case firmware.ModeGCMEnc:
		f, err := FrameGCMEnc(nonce, aad, payload)
		return one(f, err)
	case firmware.ModeGCMDec:
		f, err := FrameGCMDec(nonce, aad, payload, tag)
		return one(f, err)
	case firmware.ModeCCMEnc:
		f, err := FrameCCMEnc(nonce, aad, payload, s.TagLen)
		return one(f, err)
	case firmware.ModeCCMDec:
		f, err := FrameCCMDec(nonce, aad, payload, tag, s.TagLen)
		return one(f, err)
	case firmware.ModeCCM2MacEnc, firmware.ModeCCM2MacDec:
		mac, ctr, err := FrameCCM2(encrypt, nonce, aad, payload, tag, s.TagLen)
		return [2][]bits.Block{mac.In, ctr.In}, 2, err
	case firmware.ModeCTR:
		var icb bits.Block
		if len(nonce) != 16 {
			return streams, 0, fmt.Errorf("radio: CTR needs a 16-byte initial counter block")
		}
		copy(icb[:], nonce)
		f, err := FrameCTR(icb, payload)
		return one(f, err)
	case firmware.ModeCBCMAC:
		if len(payload)%16 != 0 {
			return streams, 0, fmt.Errorf("radio: CBC-MAC needs whole blocks")
		}
		f, err := FrameCBCMAC(bits.AppendPadBlocks(bufpool.Blocks(len(payload)/16), payload))
		return one(f, err)
	case firmware.ModeHash:
		// payload already carries Whirlpool padding (see Hash).
		nb := blockCount(len(payload))
		return one(Frame{In: bits.AppendPadBlocks(bufpool.Blocks(nb), payload)}, nil)
	}
	return streams, 0, fmt.Errorf("radio: cannot format mode %v", a.Tasks[0].Mode)
}

// Hash digests msg on a Whirlpool-reconfigured channel, delivering the
// 512-bit digest. The controller applies the Whirlpool padding before
// streaming, exactly as it formats block-cipher packets.
func (cc *CommController) Hash(ch int, msg []byte, cb func([]byte, error)) {
	padded := whirlpool.PadMessage(msg)
	cc.submit(ch, true, nil, nil, padded, nil, cb)
}

// drain services the Data Available interrupt: retrieve, read, release,
// deliver — and loop while more results wait.
func (cc *CommController) drain() {
	if cc.draining {
		return
	}
	cc.draining = true
	cc.drainOne()
}

func (cc *CommController) drainOne() {
	if !cc.dev.DataAvailable() {
		cc.draining = false
		return
	}
	cc.dev.RetrieveData(cc.onRetrieve)
}

// retrieved handles one RETRIEVE_DATA result (prebuilt as onRetrieve).
func (cc *CommController) retrieved(r core.Retrieval, err error) {
	if err != nil {
		cc.draining = false
		return
	}
	req := cc.inflight[r.ReqID]
	delete(cc.inflight, r.ReqID)
	cc.cur, cc.curR = req, r
	if req != nil {
		cc.tr.MarkNow(req.span, obs.MarkRetrieve)
	}
	if r.Code == firmware.ResultAuthFail {
		cc.finish(nil, ErrAuth)
		return
	}
	if r.OutWords == 0 {
		cc.finish(nil, nil)
		return
	}
	prio := 0
	if req != nil {
		prio = req.suite.Priority
	}
	cc.dev.ReadFromCorePrio(r.OutCore, r.OutWords, prio, cc.onWords)
}

// assembleAndFinish converts the drained output FIFO words (prebuilt as
// onWords).
func (cc *CommController) assembleAndFinish(words []uint32) {
	out := cc.assemble(cc.cur, words)
	bufpool.PutWords(words)
	cc.finish(out, nil)
}

func (cc *CommController) finish(out []byte, e error) {
	cc.pendOut, cc.pendErr = out, e
	cc.dev.TransferDone(cc.curR.ReqID, cc.onTD)
}

// transferDone delivers the completed packet and loops (prebuilt as onTD).
func (cc *CommController) transferDone(error) {
	cc.Completions++
	req, out, e := cc.cur, cc.pendOut, cc.pendErr
	cc.cur, cc.pendOut, cc.pendErr = nil, nil, nil
	if req != nil {
		cb := req.cb
		cc.putReq(req)
		cb(out, e)
	}
	cc.drainOne()
}

// assemble converts raw output FIFO words into the caller-visible bytes:
// truncating padded blocks to the true data length and the tag to the
// suite's tag length. The returned buffer is pooled (see the type
// comment); the raw staging buffer is recycled before returning.
func (cc *CommController) assemble(req *inflightReq, words []uint32) []byte {
	raw := bufpool.BytesN(4 * len(words))
	for i, w := range words {
		raw[4*i] = byte(w >> 24)
		raw[4*i+1] = byte(w >> 16)
		raw[4*i+2] = byte(w >> 8)
		raw[4*i+3] = byte(w)
	}
	var out []byte
	switch {
	case req == nil:
		out = append(bufpool.Bytes(len(raw)), raw...)
	case req.suite.Family == cryptocore.FamilyHash:
		out = append(bufpool.Bytes(whirlpool.DigestBytes), raw[:whirlpool.DigestBytes]...)
	case req.suite.Family == cryptocore.FamilyCBCMAC:
		out = append(bufpool.Bytes(16), raw[:16]...)
	case req.suite.Family == cryptocore.FamilyCTR:
		out = append(bufpool.Bytes(req.dataLen), raw[:req.dataLen]...)
	case req.encrypt:
		// [CT blocks][TAG block] -> ct || tag[:tagLen]
		ctEnd := 16 * req.dataBlocks
		out = append(bufpool.Bytes(req.dataLen+req.suite.TagLen), raw[:req.dataLen]...)
		out = append(out, raw[ctEnd:ctEnd+req.suite.TagLen]...)
	default:
		out = append(bufpool.Bytes(req.dataLen), raw[:req.dataLen]...)
	}
	bufpool.PutBytes(raw)
	return out
}

func blocksToWords(blocks []bits.Block) []uint32 {
	out := bufpool.Words(4 * len(blocks))
	for _, b := range blocks {
		w := b.Words()
		out = append(out, w[0], w[1], w[2], w[3])
	}
	return out
}
