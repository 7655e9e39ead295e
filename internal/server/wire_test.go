package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
)

// decoded is what decodeRequest wrote into r: the record without its body
// buffer and bound completion, empty slices as nil.
func decoded(r *request) request {
	d := *r
	d.buf, d.done = nil, nil
	for _, b := range []*[]byte{&d.nonce, &d.aad, &d.data, &d.tag} {
		if len(*b) == 0 {
			*b = nil
		}
	}
	return d
}

// FuzzDecodeRequest holds the server's request decoder to three
// properties on any input, taken as a request body and as a byte stream:
// decoding into a recycled record (one a longer DECRYPT used before it went
// back to the pool) yields what decoding into a fresh record does; a packet
// built by encodePacket decodes to its parts, and a packet body the decoder
// accepts re-encodes to itself; readFrame reads whole frames, and fails
// without panicking on a short or oversized length prefix.
func FuzzDecodeRequest(f *testing.F) {
	prior := encodePacket(nil, OpDecrypt, 99, 7, bytes.Repeat([]byte{0xa5}, 13),
		bytes.Repeat([]byte{0x5a}, 40), bytes.Repeat([]byte{0xc3}, 300), bytes.Repeat([]byte{0x3c}, 16))
	f.Fuzz(func(t *testing.T, body []byte) {
		fresh := &request{}
		ok := decodeRequest(body, fresh)

		var pool requestPool
		r := pool.get()
		if !decodeRequest(prior, r) {
			t.Fatal("the prior DECRYPT does not decode")
		}
		r.conn, r.enq, r.shard, r.flushSeq, r.malformed = &conn{}, 1, 1, 1, true
		pool.put(r)
		if got := pool.get(); got != r {
			t.Fatal("the pool did not hand back the record it was given")
		}
		if decodeRequest(body, r) != ok || !reflect.DeepEqual(decoded(r), decoded(fresh)) {
			t.Fatalf("recycled record decodes %+v, fresh one %+v", decoded(r), decoded(fresh))
		}

		if ok && (fresh.op == OpEncrypt || fresh.op == OpDecrypt) {
			again := encodePacket(nil, fresh.op, fresh.reqID, fresh.sess, fresh.nonce, fresh.aad, fresh.data, fresh.tag)
			if !bytes.Equal(again, body) {
				t.Fatalf("accepted packet re-encodes to %x, body was %x", again, body)
			}
		}

		cut := func(b []byte, n int) ([]byte, []byte) {
			n = min(n, len(b))
			return b[:n], b[n:]
		}
		nonce, rest := cut(body, len(body)%17)
		aad, rest := cut(rest, len(rest)%7)
		tag, data := cut(rest, len(rest)%19)
		want := request{op: OpEncrypt, reqID: uint64(len(body)), sess: uint64(len(data)), nonce: nonce, aad: aad, data: data}
		if len(body)%2 == 1 {
			want.op, want.tag = OpDecrypt, tag
		}
		var got request
		enc := encodePacket(nil, want.op, want.reqID, want.sess, nonce, aad, data, tag)
		if !decodeRequest(enc, &got) || !reflect.DeepEqual(decoded(&got), decoded(&want)) {
			t.Fatalf("encodePacket then decodeRequest gives %+v, want %+v", decoded(&got), decoded(&want))
		}

		br := bufio.NewReaderSize(bytes.NewReader(body), 16)
		var buf []byte
		for left := len(body); ; {
			frame, err := readFrame(br, buf)
			switch {
			case err == nil:
				left -= 4 + len(frame)
				buf = frame
				continue
			case left == 0 && err != io.EOF:
				t.Fatalf("readFrame at the end of the stream: %v, want io.EOF", err)
			case left > 0 && err == io.EOF:
				t.Fatalf("readFrame with %d bytes of a frame left: io.EOF, want io.ErrUnexpectedEOF", left)
			case frame != nil:
				t.Fatalf("readFrame failed (%v) but returned %d bytes", err, len(frame))
			}
			break
		}
	})
}

// TestReadFrameRejectsOversizedPrefix checks that a length prefix over
// MaxFrame fails before the frame buffer grows.
func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader([]byte{0x01, 0x00, 0x00, 0x01, 0xff}))
	frame, err := readFrame(br, nil)
	if err == nil || !strings.Contains(err.Error(), "MaxFrame") || frame != nil {
		t.Fatalf("readFrame on a %d-byte prefix: %d bytes, %v; want a MaxFrame error", MaxFrame+1, len(frame), err)
	}
}

// TestRecycledRequestsKeepTheirBodies pipelines many more distinct packets
// than BatchOps on two connections, so request records and their body
// buffers are reused while other packets are still queued in the cluster,
// then DECRYPTs every output and wants back its own input.
func TestRecycledRequestsKeepTheirBodies(t *testing.T) {
	const batchOps, packets = 8, 240
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Shards: 2, Seed: 3}, BatchOps: batchOps})
	defer srv.Close()

	type packet struct {
		nonce, aad, data []byte
	}
	run := func(conn int, cl *Client) error {
		defer cl.Close()
		specs := []OpenRequest{
			{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data},
			{Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Class: qos.Voice},
		}
		ids, err := cl.OpenMany(specs)
		if err != nil {
			return err
		}
		// answers FLUSHes and returns each packet's output.
		answers := func(op Op) ([][]byte, error) {
			if _, err := cl.SendFlush(); err != nil {
				return nil, err
			}
			outs := make([][]byte, packets)
			for i := 0; i <= packets; i++ {
				r, err := cl.ReadResponse()
				if err == nil {
					err = r.Err()
				}
				if err != nil {
					return nil, fmt.Errorf("%s answer %d: %w", op, i, err)
				}
				if i < packets {
					outs[i] = r.Out
				}
			}
			return outs, nil
		}
		in := make([]packet, packets)
		for i := range in {
			// Lengths vary, so a reused body buffer holds a longer packet's
			// stale bytes past the current one's end.
			nonce := make([]byte, 12+i%2)
			copy(nonce, fmt.Sprintf("%d/%d", conn, i))
			in[i] = packet{
				nonce: nonce,
				aad:   bytes.Repeat([]byte{byte(i)}, i%5),
				data:  bytes.Repeat([]byte{byte(conn), byte(i), byte(i >> 8)}, 1+i%37),
			}
			if _, err := cl.SendEncrypt(ids[i%2], in[i].nonce, in[i].aad, in[i].data); err != nil {
				return err
			}
		}
		sealed, err := answers(OpEncrypt)
		if err != nil {
			return err
		}
		for i, p := range in {
			tagLen := specs[i%2].TagLen
			ct := sealed[i][:len(sealed[i])-tagLen]
			if _, err := cl.SendDecrypt(ids[i%2], p.nonce, p.aad, ct, sealed[i][len(ct):]); err != nil {
				return err
			}
		}
		plain, err := answers(OpDecrypt)
		if err != nil {
			return err
		}
		for i, p := range in {
			if !bytes.Equal(plain[i], p.data) {
				return fmt.Errorf("conn %d packet %d: decrypt(encrypt(p)) = %x, want %x", conn, i, plain[i], p.data)
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	for conn := 0; conn < 2; conn++ {
		cl := dialClient(t, lb)
		go func() { errs <- run(conn, cl) }()
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		t.Fatal(err)
	}
}
