// Multichannel: the workload the paper's title is about — several
// communication standards with different cipher suites protected
// concurrently on the four cores, with the QoS queueing extension and the
// key-affinity dispatch policy.
package main

import (
	"fmt"
	"log"

	"mccp"
	"mccp/internal/trafficgen"
)

func main() {
	p, err := mccp.NewPlatform(mccp.WithQueueing(0), mccp.WithPolicy(mccp.PolicyKeyAffinity), mccp.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// Three standards, as in the paper's introduction: a CCM voice link,
	// a CCM WiFi-style data link and a GCM wideband link.
	standards := []trafficgen.Standard{
		trafficgen.VoiceUMTS,
		trafficgen.WiFiCCMP,
		trafficgen.WiMaxGCM,
	}
	gen := trafficgen.NewGenerator(7, standards)

	type link struct {
		name string
		ch   *mccp.Channel
		std  int
	}
	var links []link
	for i, s := range standards {
		key, err := p.NewKey(s.KeyLen)
		if err != nil {
			log.Fatal(err)
		}
		ch, err := p.Open(mccp.Suite{
			Family:   s.Family,
			TagLen:   s.TagLen,
			SplitCCM: s.Split,
			Priority: s.Priority,
		}, key)
		if err != nil {
			log.Fatal(err)
		}
		links = append(links, link{name: s.Name, ch: ch, std: i})
	}

	// Push 10 packets per channel, all in flight together: the Task
	// Scheduler interleaves them across the four cores.
	const perChannel = 10
	bytesByLink := make([]int, len(links))
	done := 0
	start := p.Cycles()
	for round := 0; round < perChannel; round++ {
		for i, l := range links {
			pkt := gen.Next(l.std, l.ch.ID())
			bytesByLink[i] += len(pkt.Payload)
			name := l.name
			l.ch.EncryptAsync(pkt.Nonce, pkt.AAD, pkt.Payload, func(sealed []byte, err error) {
				if err != nil {
					log.Fatalf("%s: %v", name, err)
				}
				done++
			})
		}
	}
	p.Run()
	cycles := p.Cycles() - start

	total := 0
	for i, l := range links {
		fmt.Printf("%-12s %2d packets, %6d bytes\n", l.name, perChannel, bytesByLink[i])
		total += bytesByLink[i]
	}
	mbps := float64(total*8) / float64(cycles) * 190
	fmt.Printf("\n%d packets (%d bytes) in %d cycles -> %.0f Mbps aggregate at 190 MHz\n",
		done, total, cycles, mbps)

	st := p.Stats()
	fmt.Printf("key expansions: %d (key-affinity keeps channels on their cores)\n", st.KeyExpansions)
	fmt.Printf("queued under overload: %d, rejected: %d\n", st.Queued, st.Rejected)
}
