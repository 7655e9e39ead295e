// Quickstart: open a GCM channel on the simulated MCCP, protect a packet,
// verify it, and show the tamper-rejection path.
package main

import (
	"fmt"
	"log"

	"mccp"
)

func main() {
	// A four-core MCCP at a modeled 190 MHz, with the paper's first-idle
	// task scheduler.
	p, err := mccp.NewPlatform()
	if err != nil {
		log.Fatal(err)
	}

	// The main controller provisions a session key into the Key Memory;
	// key bytes never cross the MCCP data port.
	key, err := p.NewKey(16) // AES-128
	if err != nil {
		log.Fatal(err)
	}

	// OPEN a channel: AES-GCM with a 16-byte tag.
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		log.Fatal(err)
	}
	defer ch.Close()

	nonce := []byte("012345678901") // 96-bit GCM IV
	aad := []byte("frame-header")
	payload := []byte("hello from the software-defined radio")

	sealed, err := ch.Encrypt(nonce, aad, payload)
	if err != nil {
		log.Fatal(err)
	}
	ct, tag := sealed[:len(payload)], sealed[len(payload):]
	fmt.Printf("ciphertext: %x\n", ct)
	fmt.Printf("tag:        %x\n", tag)

	plain, err := ch.Decrypt(nonce, aad, ct, tag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decrypted:  %q\n", plain)

	// Corrupt one ciphertext byte: the core firmware recomputes the tag,
	// flushes its output FIFO and reports AUTH_FAIL.
	ct[0] ^= 0x01
	if _, err := ch.Decrypt(nonce, aad, ct, tag); err == mccp.ErrAuth {
		fmt.Println("tampered packet rejected (output FIFO flushed)")
	} else {
		log.Fatalf("tamper not detected: %v", err)
	}

	st := p.Stats()
	fmt.Printf("\n%d packets in %.1f µs of simulated time (%d cycles at 190 MHz)\n",
		st.Packets, p.Elapsed()*1e6, p.Cycles())
}
