// Dualcore: the paper's two-core CCM mapping. One CCM packet is split
// across a core pair — CBC-MAC on one core, CTR on the other, the MAC
// crossing the inter-core shift register — and compared with the one-core
// mapping for throughput and latency (Table II's 2-cores vs 1-core columns).
package main

import (
	"fmt"
	"log"

	"mccp"
)

func run(split bool, packets int) (mbps float64, meanLatency float64) {
	p, err := mccp.NewPlatform(mccp.WithQueueing(0))
	if err != nil {
		log.Fatal(err)
	}
	key, err := p.NewKey(16)
	if err != nil {
		log.Fatal(err)
	}
	ch, err := p.Open(mccp.Suite{Family: mccp.CCM, TagLen: 8, SplitCCM: split}, key)
	if err != nil {
		log.Fatal(err)
	}
	nonce := make([]byte, 13)
	payload := make([]byte, 2048)

	// Warm-up (key expansion).
	if _, err := ch.Encrypt(nonce, nil, payload[:64]); err != nil {
		log.Fatal(err)
	}

	start := p.Cycles()
	var latSum uint64
	for i := 0; i < packets; i++ {
		nonce[12] = byte(i)
		t0 := p.Cycles()
		if _, err := ch.Encrypt(nonce, nil, payload); err != nil {
			log.Fatal(err)
		}
		latSum += uint64(p.Cycles() - t0)
	}
	cycles := p.Cycles() - start
	mbps = float64(packets*2048*8) / float64(cycles) * 190
	meanLatency = float64(latSum) / float64(packets)
	return
}

func main() {
	const packets = 10
	oneMbps, oneLat := run(false, packets)
	twoMbps, twoLat := run(true, packets)

	fmt.Println("AES-CCM, 2 KB packets, 128-bit key, 190 MHz")
	fmt.Printf("  1 core : %6.0f Mbps, %6.0f cycles/packet  (paper 2KB: 214 Mbps)\n", oneMbps, oneLat)
	fmt.Printf("  2 cores: %6.0f Mbps, %6.0f cycles/packet  (paper 2KB: 393 Mbps)\n", twoMbps, twoLat)
	fmt.Printf("\nsplitting one packet across a core pair: %.2fx throughput, %.2fx latency\n",
		twoMbps/oneMbps, twoLat/oneLat)
	fmt.Println("(the paper's §VII.A trade-off: 4x1 beats 2x2 on throughput,")
	fmt.Println(" but the two-core split halves per-packet latency)")
}
