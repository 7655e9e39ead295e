package server

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
)

// waitGoroutines retries until the goroutine count returns to base (the
// runtime retires exited goroutines asynchronously).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func startLoopback(t *testing.T, cfg Config) (*Server, *Loopback) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv.Serve(lb)
	return srv, lb
}

func dialClient(t *testing.T, lb *Loopback) *Client {
	t.Helper()
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(nc)
}

func TestOpenEncryptDecryptRoundTrip(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 7}})
	cl := dialClient(t, lb)

	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	payload := []byte("the quick brown fox jumps over the lazy dog over and over again!")
	r, err := cl.Encrypt(sess, nonce, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOK {
		t.Fatalf("encrypt status %v", r.Status)
	}
	if len(r.Out) != len(payload)+16 {
		t.Fatalf("ciphertext %d bytes, want %d", len(r.Out), len(payload)+16)
	}
	if r.Timing.WireCycles == 0 {
		t.Fatal("encrypt reported zero wire cycles")
	}
	ct, tag := r.Out[:len(payload)], r.Out[len(payload):]
	d, err := cl.Decrypt(sess, nonce, nil, ct, tag)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusOK || !bytes.Equal(d.Out, payload) {
		t.Fatalf("decrypt status %v, plaintext mismatch", d.Status)
	}

	// Corrupt tag -> AuthFail status on the wire.
	tag[0] ^= 0xFF
	d, err = cl.Decrypt(sess, nonce, nil, ct, tag)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusAuthFail {
		t.Fatalf("corrupted tag status %v, want auth-fail", d.Status)
	}

	st, err := cl.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != 1 || st.Verdicts[StatusOK] != 2 || st.Verdicts[StatusAuthFail] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 || st.ClusterCycles == 0 {
		t.Fatalf("stats missing traffic: %+v", st)
	}

	if status, err := cl.CloseSession(sess); err != nil || status != StatusOK {
		t.Fatalf("close: %v %v", status, err)
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

func TestLifecycleEdges(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 3}})
	cl := dialClient(t, lb)

	// OPEN with an unknown algorithm family.
	if _, err := cl.Open(OpenRequest{Family: cryptocore.Family(9), KeyLen: 16, Class: qos.Data}); err == nil {
		t.Fatal("OPEN with unknown family succeeded")
	}
	// OPEN with a bad key length (cluster-side validation).
	if _, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 17, Class: qos.Data}); err == nil {
		t.Fatal("OPEN with bad key length succeeded")
	}
	// Hash sessions are not a wire family.
	if _, err := cl.Open(OpenRequest{Family: cryptocore.FamilyHash, Class: qos.Data}); err == nil {
		t.Fatal("OPEN hash family succeeded")
	}

	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	// Request on a never-opened session id.
	r, err := cl.Encrypt(sess+100, make([]byte, 13), nil, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusUnknownSess {
		t.Fatalf("unknown session status %v", r.Status)
	}
	// Double CLOSE.
	if status, _ := cl.CloseSession(sess); status != StatusOK {
		t.Fatalf("first close %v", status)
	}
	if status, _ := cl.CloseSession(sess); status != StatusSessClosed {
		t.Fatalf("double close %v, want session-closed", status)
	}
	// Request on a closed session.
	r, err = cl.Encrypt(sess, make([]byte, 13), nil, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusSessClosed {
		t.Fatalf("closed session status %v", r.Status)
	}

	// Malformed frame: a truncated body.
	cl.bw.Write([]byte{0, 0, 0, 3, byte(OpOpen), 1, 2})
	resp, err := cl.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Fatalf("malformed frame status %v", resp.Status)
	}

	// Session limit admission.
	srv2, lb2 := startLoopback(t, Config{Cluster: cluster.Config{Seed: 4}, MaxSessions: 1})
	cl2 := dialClient(t, lb2)
	if _, err := cl2.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data}); err == nil {
		t.Fatal("OPEN past MaxSessions succeeded")
	}
	cl2.Close()
	srv2.Close()

	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestIdleReaperMidFlight proves a reaped connection's sessions and
// in-flight (batched but unflushed) operations are reclaimed without
// hanging the server or leaking goroutines.
func TestIdleReaperMidFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster:     cluster.Config{Seed: 11},
		BatchOps:    1024, // large: the encrypt below stays pending
		IdleTimeout: 50 * time.Millisecond,
	})
	cl := dialClient(t, lb)
	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Video})
	if err != nil {
		t.Fatal(err)
	}
	// Leave an encrypt in the batcher's pending window, then go idle.
	if _, err := cl.SendEncrypt(sess, make([]byte, 12), nil, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// The reaper must close the idle connection; the client observes it
	// as a dead pipe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := cl.ReadResponse(); err != nil {
			if ne, ok := err.(interface{ Timeout() bool }); !ok || !ne.Timeout() {
				break // connection killed by the reaper
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper never closed the idle connection")
		}
	}
	// A fresh connection sees the session count back at zero.
	cl2 := dialClient(t, lb)
	var open uint64 = 99
	for tries := 0; tries < 100; tries++ {
		st, err := cl2.Retrieve()
		if err != nil {
			t.Fatal(err)
		}
		if open = st.SessionsOpen; open == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if open != 0 {
		t.Fatalf("reaped connection left %d sessions open", open)
	}
	cl2.Close()
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestShutdownWithInFlightBatches closes the server while a client has
// pending batched operations; the shutdown must answer or discard them
// without hanging and return every goroutine.
func TestShutdownWithInFlightBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster:  cluster.Config{Seed: 13},
		BatchOps: 4096, // nothing flushes on its own
	})
	cl := dialClient(t, lb)
	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := cl.SendEncrypt(sess, make([]byte, 12), nil, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Drain responses concurrently until the connection dies: shutdown
	// must not depend on the client reading everything.
	drained := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := cl.ReadResponse(); err != nil {
				drained <- n
				return
			}
			n++
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the batcher ingest the requests
	srv.Close()
	<-drained
	cl.Close()
	waitGoroutines(t, base)
}

// TestSessionScale opens 10^5 concurrent wire sessions over one
// loopback connection (derated under the race detector), runs traffic on
// a sample of them, and verifies shutdown returns the goroutine count to
// baseline — the "millions of users" claim's memory/liveness floor.
func TestSessionScale(t *testing.T) {
	sessions := 100_000
	if raceEnabled {
		sessions = 20_000
	}
	if testing.Short() {
		sessions = 5_000
	}
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster: cluster.Config{Shards: 4, Seed: 17, Router: "least-loaded"},
	})
	cl := dialClient(t, lb)
	specs := make([]OpenRequest, sessions)
	for i := range specs {
		specs[i] = OpenRequest{
			Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16,
			Class: qos.Class(i % qos.NumClasses),
		}
	}
	ids, err := cl.OpenMany(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != sessions {
		t.Fatalf("opened %d sessions, want %d", len(ids), sessions)
	}
	// Traffic on a spread of sessions.
	nonce := make([]byte, 12)
	payload := make([]byte, 128)
	step := sessions / 256
	sent := 0
	for i := 0; i < sessions; i += step {
		if _, err := cl.SendEncrypt(ids[i], nonce, nil, payload); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if _, err := cl.SendFlush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sent+1; i++ {
		if _, err := cl.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != uint64(sessions) {
		t.Fatalf("server reports %d open sessions, want %d", st.SessionsOpen, sessions)
	}
	if st.Verdicts[StatusOK] == 0 {
		t.Fatal("no traffic completed")
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestLoadRunDeterministic runs the open-loop wire workload twice. On
// one connection every virtual-time result is bit-identical; on two, the
// server interleaves the connections as they are scheduled, so only the
// per-connection arrival digests must repeat — and they must differ from
// each other, or a merge could hide one connection's ordering bug behind
// the other's.
func TestLoadRunDeterministic(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("conns=%d", conns), func(t *testing.T) {
			run := func() LoadResult {
				srv, lb := startLoopback(t, Config{
					Cluster: cluster.Config{
						Shards: 2, Seed: 23, Router: "qos-aware", Policy: "qos-priority",
						QueueRequests: true, Shape: true,
						Shaper: qos.Config{Capacity: 8, QueueDepth: 32},
					},
					BatchOps: 64,
				})
				defer srv.Close()
				res, err := RunLoad(func() (nc net.Conn, err error) { return lb.Dial() }, LoadConfig{
					Sessions: 16,
					Mix: []arrivals.ClassProfile{
						{Class: qos.Voice, Share: 0.25, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
						{Class: qos.Background, Share: 0.75, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
					},
					BitsPerCycle: 4.0,
					WindowCycles: 4096,
					Windows:      12,
					Seed:         99,
					Conns:        conns,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if len(a.ArrivalDigests) != conns {
				t.Fatalf("%d arrival digests for %d connections", len(a.ArrivalDigests), conns)
			}
			if !reflect.DeepEqual(a.ArrivalDigests, b.ArrivalDigests) {
				t.Fatalf("arrival digests differ: %x vs %x", a.ArrivalDigests, b.ArrivalDigests)
			}
			if conns > 1 {
				if a.ArrivalDigests[0] == a.ArrivalDigests[1] {
					t.Fatalf("connections share arrival digest %x", a.ArrivalDigests[0])
				}
				return
			}
			if !reflect.DeepEqual(a.Classes, b.Classes) {
				t.Fatalf("class records differ:\n%+v\n%+v", a.Classes, b.Classes)
			}
			if !reflect.DeepEqual(a.Windows, b.Windows) {
				t.Fatalf("window records differ:\n%+v\n%+v", a.Windows, b.Windows)
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("server stats differ:\n%+v\n%+v", a.Stats, b.Stats)
			}
			if qos.CellOf(a.Classes, qos.Voice).Completed == 0 || qos.CellOf(a.Classes, qos.Background).Completed == 0 {
				t.Fatalf("no completions: %+v", a.Classes)
			}
		})
	}
}
