// Example qos walks through the §VIII quality-of-service subsystem: a
// platform running the qos-priority dispatch policy, channels tagged with
// priority classes, and the shaper front end providing bounded per-class
// queues, weighted-fair draining, admission control and per-class latency
// percentiles — all in deterministic virtual time.
package main

import (
	"fmt"
	"log"

	"mccp"
)

func main() {
	// A 4-core device with the qos-priority policy: one core stays
	// reserved for video/voice-class traffic, and saturating requests
	// queue (priority-ordered) instead of drawing the error flag.
	p, err := mccp.NewPlatform(mccp.WithPolicy(mccp.PolicyQoSPriority), mccp.WithQueueing(0))
	if err != nil {
		log.Fatal(err)
	}

	// One channel per class; the Suite.Priority tag is the class value,
	// so the device scheduler and the crossbar grant logic see it too.
	voiceKey, _ := p.NewKey(16)
	bulkKey, _ := p.NewKey(16)
	voice, err := p.Open(mccp.Suite{Family: mccp.CCM, TagLen: 8,
		Priority: mccp.QoSVoice.Priority()}, voiceKey)
	if err != nil {
		log.Fatal(err)
	}
	bulk, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16,
		Priority: mccp.QoSBackground.Priority()}, bulkKey)
	if err != nil {
		log.Fatal(err)
	}

	// The shaper sits between the traffic source and the device: at most
	// 4 packets in flight, an 8-deep queue per class, weighted-fair
	// drain (voice 8 : video 4 : data 2 : background 1).
	shaper := p.NewShaper(mccp.ShaperConfig{
		Capacity:   4,
		QueueDepth: 8,
		Drain:      mccp.QoSDrainWeightedFair,
	})

	// Offer a burst: 14 bulk transfers at once (overflowing the bounded
	// background queue), then a steady voice stream with deadline tags.
	bulkNonce := make([]byte, 12)
	shedded := 0
	for i := 0; i < 14; i++ {
		shaper.Encrypt(mccp.QoSBackground, bulk.ID(), bulkNonce, nil, make([]byte, 2048),
			func(_ []byte, err error) {
				if err == mccp.ErrShed {
					shedded++ // admission control: explicit verdict, no silent loss
				} else if err != nil {
					log.Fatal(err)
				}
			})
	}
	voiceNonce := make([]byte, 13)
	sent := 0
	var sendVoice func()
	sendVoice = func() {
		if sent == 16 {
			return
		}
		sent++
		// Deadline: 8000 cycles (~42 µs at 190 MHz) from submission.
		shaper.EncryptDeadline(mccp.QoSVoice, voice.ID(), voiceNonce, nil,
			make([]byte, 256), p.Cycles()+8000, func(_ []byte, err error) {
				if err != nil {
					log.Fatal(err)
				}
				sendVoice()
			})
	}
	sendVoice()
	p.Run() // drain the virtual timeline

	fmt.Printf("virtual time: %d cycles (%.1f µs at 190 MHz)\n\n", p.Cycles(), p.Elapsed()*1e6)
	fmt.Printf("%-12s %10s %8s %6s %10s %10s %8s\n",
		"class", "completed", "shed", "miss", "p50 cyc", "p99 cyc", "Mbps")
	for _, st := range shaper.AllStats() {
		if st.Submitted == 0 {
			continue
		}
		fmt.Printf("%-12v %10d %8d %6d %10d %10d %8.0f\n",
			st.Class, st.Completed, st.Shed, st.DeadlineMisses,
			shaper.LatencyPercentile(st.Class, 50),
			shaper.LatencyPercentile(st.Class, 99),
			st.Mbps(190e6))
	}
	stats := p.Stats()
	fmt.Printf("\ndevice: %d packets, %d queued, %d rejected, %d shed (device queue)\n",
		stats.Packets, stats.Queued, stats.Rejected, stats.Shed)
	fmt.Printf("shaper shed %d of 14 bulk packets at the bounded class queue\n", shedded)
}
