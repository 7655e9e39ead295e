// mccploadgen is the open-loop network client for mccpserver: per-session
// arrival processes on a splittable PRNG generate packets on a wire
// clock, each fixed window is pipelined behind a FLUSH barrier, and the
// per-class report shows delivered rate, verdict mix, and end-to-end wire
// latency percentiles. With one connection the run is deterministic in
// (flags, seed).
//
// Usage:
//
//	mccploadgen -connect 127.0.0.1:9650 -sessions 1000 -offered-mbps 2500
//	mccploadgen -conns 4 -process onoff -windows 96
//	mccploadgen -trace run.csv -offered-mbps 5000   # per-request timing lines
//	mccploadgen -churn 8 -churn-from 16             # close+reopen 8 sessions
//	                                                # per window: churn storm
//	mccploadgen -io-timeout 2s -retries 3           # bounded-backoff retries
//	                                                # instead of hanging on a
//	                                                # wedged server
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/harness"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// traceHeader names the CSV columns RunLoad emits per packet.
const traceHeader = "conn,session,class,seq,arrival_cycle,bytes,status,wire_cycles,total_cycles,queue_ns,service_ns\n"

func main() {
	connect := flag.String("connect", "127.0.0.1:9650", "mccpserver address")
	conns := flag.Int("conns", 1, "client connections (sessions split across them; >1 trades determinism for load)")
	sessions := flag.Int("sessions", 64, "concurrent wire sessions")
	offeredMbps := flag.Float64("offered-mbps", 1000, "total offered rate on the wire clock")
	process := flag.String("process", "", "arrival process ("+strings.Join(arrivals.Names(), ", ")+"; default poisson)")
	windows := flag.Int("windows", 48, "measurement windows")
	windowCycles := flag.Uint64("window-cycles", 8192, "client batching window in wire-clock cycles")
	pipeline := flag.Int("pipeline", 0, "outstanding requests per connection (0 = default)")
	seed := flag.Uint64("seed", 31, "deterministic arrival seed")
	trace := flag.String("trace", "", "write per-request timing CSV to this file")
	traceOut := flag.String("trace-out", "", "write per-request timing JSONL (one object per line) to this file")
	serverMetrics := flag.Bool("server-metrics", false, "after the run, fetch and print the server's metrics over the STATS wire op")
	version := flag.Bool("version", false, "print version and exit")
	churn := flag.Int("churn", 0, "sessions closed and re-opened lock-step after every window boundary (the open/close churn storm)")
	churnFrom := flag.Int("churn-from", 0, "first window the churn runs after (0 = from the first boundary)")
	ioTimeout := flag.Duration("io-timeout", 0, "per-response read deadline (0 = wait forever); timeouts surface as server.ErrTimeout")
	retries := flag.Int("retries", 0, "total attempts for idempotent OPEN/CLOSE/FLUSH after a timeout (0 or 1 = no retry); resends reuse the request id, so the server dedupes")
	openStorm := flag.Bool("open-storm", false, "OPEN-admission storm instead of the open-loop load: waves of short-lived connections hammer the front door with OPENs across every class; shed non-voice OPENs are tolerated and counted (pair with mccpserver -open-burst/-open-cap), a shed voice OPEN fails the run")
	stormConns := flag.Int("storm-conns", 8, "concurrent connections per -open-storm wave")
	stormWaves := flag.Int("storm-waves", 4, "sequential -open-storm waves")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("mccploadgen"))
		return
	}

	if *openStorm {
		res, err := server.RunStorm(func() (net.Conn, error) {
			return net.Dial("tcp", *connect)
		}, server.StormConfig{
			Conns:        *stormConns,
			Waves:        *stormWaves,
			IOTimeout:    *ioTimeout,
			Retry:        server.RetryPolicy{Attempts: *retries, Seed: *seed},
			TolerateShed: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("open storm: %d connections over %d waves: %d OPENs admitted, %d non-voice OPENs shed by admission, %d packets, %d sessions closed, %d connections abandoned\n",
			res.Dialed, *stormWaves, res.Opened, res.ShedOpens, res.Packets, res.Closed, res.Abandons)
		fmt.Println("voice OPENs are never shed by admission (a shed voice OPEN fails the storm)")
		return
	}

	if *process != "" {
		if _, err := arrivals.ByName(*process, 1); err != nil {
			log.Fatalf("-process: %v", err)
		}
	}
	cfg := server.LoadConfig{
		Sessions:      *sessions,
		Mix:           harness.WireMix,
		Process:       *process,
		BitsPerCycle:  *offeredMbps * 1e6 / sim.DefaultFreqHz,
		WindowCycles:  sim.Time(*windowCycles),
		Windows:       *windows,
		Seed:          *seed,
		Conns:         *conns,
		Pipeline:      *pipeline,
		ChurnSessions: *churn,
		ChurnFrom:     *churnFrom,
		IOTimeout:     *ioTimeout,
		Retry:         server.RetryPolicy{Attempts: *retries},
	}
	switch {
	case *trace != "" && *traceOut != "":
		log.Fatal("-trace and -trace-out are mutually exclusive")
	case *trace != "":
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		defer f.Close()
		if _, err := f.WriteString(traceHeader); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		cfg.Trace = f
	case *traceOut != "":
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("-trace-out: %v", err)
		}
		defer f.Close()
		cfg.Trace = f
		cfg.TraceJSON = true
	}

	res, err := server.RunLoad(func() (net.Conn, error) {
		return net.Dial("tcp", *connect)
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("open-loop wire load: %d sessions over %d conn(s), %.0f Mbps offered, %d windows x %d cycles:\n",
		*sessions, *conns, *offeredMbps, *windows, *windowCycles)
	qos.WriteClassCells(os.Stdout, res.Classes)
	fmt.Printf("arrival digests per connection (determinism check): %x\n", res.ArrivalDigests)
	if res.Churned > 0 {
		fmt.Printf("churn storm: %d sessions closed and re-opened\n", res.Churned)
	}
	if res.Stats != nil {
		fmt.Printf("server: %d sessions opened, %d cluster cycles, shard digests %x\n",
			res.Stats.SessionsOpened, res.Stats.ClusterCycles, res.Stats.Digests)
	}

	if *serverMetrics {
		nc, err := net.Dial("tcp", *connect)
		if err != nil {
			log.Fatalf("-server-metrics: %v", err)
		}
		c := server.NewClient(nc)
		text, err := c.MetricsText()
		c.Close()
		if err != nil {
			log.Fatalf("-server-metrics: %v", err)
		}
		fmt.Printf("\n# server metrics (STATS)\n%s", text)
	}
}
