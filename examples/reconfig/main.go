// Reconfig: the paper's §VII.B scenario — swap one core's reconfigurable
// region from AES to Whirlpool at runtime (partial reconfiguration), hash a
// firmware image on it while the other cores keep encrypting, then swap
// back.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mccp"
	"mccp/internal/whirlpool"
)

func main() {
	p, err := mccp.NewPlatform(mccp.WithQueueing(0))
	if err != nil {
		log.Fatal(err)
	}

	key, err := p.NewKey(16)
	if err != nil {
		log.Fatal(err)
	}
	gcm, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		log.Fatal(err)
	}

	// Swap core 3 to the Whirlpool engine. Table IV: the 97 kB partial
	// bitstream takes ~69 ms from staging RAM (~416 ms from CompactFlash).
	took, err := p.Reconfigure(3, mccp.EngineWhirlpool, mccp.FromRAM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core 3 reconfigured to Whirlpool in %.1f ms (%d cycles)\n",
		float64(took)/190e3, took)

	// Hash channel on the reconfigured core; AES channels keep cores 0-2.
	hash, err := p.Open(mccp.Suite{Family: mccp.Hash}, 0)
	if err != nil {
		log.Fatal(err)
	}

	image := bytes.Repeat([]byte("radio-waveform-update-v2 "), 64)
	digest, err := hash.Sum(image)
	if err != nil {
		log.Fatal(err)
	}
	want := whirlpool.Sum(image)
	fmt.Printf("whirlpool digest (device): %x...\n", digest[:16])
	fmt.Printf("whirlpool digest (oracle): %x...\n", want[:16])
	if !bytes.Equal(digest, want[:]) {
		log.Fatal("digest mismatch")
	}

	// Encryption continues to work alongside hashing.
	nonce := []byte("012345678901")
	sealed, err := gcm.Encrypt(nonce, nil, []byte("traffic during the hash job"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GCM still flowing on cores 0-2: tag %x\n", sealed[len(sealed)-16:])

	// Swap back: the key-exchange-then-data-cipher pattern of §VII.B.
	if _, err := p.Reconfigure(3, mccp.EngineAES, mccp.FromRAM); err != nil {
		log.Fatal(err)
	}
	fmt.Println("core 3 restored to AES; all four cores encrypt again")
}
