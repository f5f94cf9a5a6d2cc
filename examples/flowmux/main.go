// Flowmux: scan a packet batch and many concurrent flows over one shared
// matcher — the software analogue of the paper's 6-engines-per-block
// parallelism. Every goroutine shares one compiled automaton; each flow
// carries only its own scanner registers (state + 2-byte history), held by
// value in its Stream.
//
//	go run ./examples/flowmux
package main

import (
	"fmt"
	"log"
	"sync"

	dpi "repro"
)

func main() {
	rules := dpi.NewRuleset()
	rules.MustAdd("web-phf", []byte("/cgi-bin/phf"))
	rules.MustAdd("traversal", []byte("../../"))
	rules.MustAdd("cmd-exe", []byte("cmd.exe"))
	rules.MustAdd("nop-sled", []byte{0x90, 0x90, 0x90, 0x90})

	matcher, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Batch mode: a burst of independent packets, one goroutine each. The
	// Matcher is immutable, so FindAll needs no lock; each goroutine stamps
	// its packet's index and writes only its own result slot, so walking
	// the slots gives canonical (PacketID, End, PatternID) order.
	packets := [][]byte{
		[]byte("GET /cgi-bin/phf?Qalias=x HTTP/1.0"),
		[]byte("GET /index.html HTTP/1.0"),
		[]byte("GET /../../etc/shadow HTTP/1.0 cmd.exe"),
	}
	perPacket := make([][]dpi.Match, len(packets))
	var wg sync.WaitGroup
	for id, payload := range packets {
		wg.Add(1)
		go func(id int, payload []byte) {
			defer wg.Done()
			perPacket[id] = matcher.FindAll(payload)
			for i := range perPacket[id] {
				perPacket[id][i].PacketID = id
			}
		}(id, payload)
	}
	wg.Wait()
	for _, matches := range perPacket {
		for _, m := range matches {
			fmt.Printf("packet %d: %-9s at [%2d,%2d)\n",
				m.PacketID, rules.Name(m.PatternID), m.Start, m.End)
		}
	}

	// Streaming mode: concurrent flows, each receiving its payload in
	// chunks (as TCP segments would arrive). Matches spanning chunk
	// boundaries are still found; offsets are flow-relative.
	flows := [][]byte{
		[]byte("POST /upload \x90\x90\x90\x90 HTTP/1.1"),
		[]byte("GET /a/../.\x00./../b cmd" + ".exe HTTP/1.1"),
	}
	var mu sync.Mutex
	for id, payload := range flows {
		wg.Add(1)
		go func(id int, payload []byte) {
			defer wg.Done()
			f := matcher.NewStream(func(m dpi.Match) {
				mu.Lock()
				fmt.Printf("flow %d: %-9s at [%2d,%2d)\n", id, rules.Name(m.PatternID), m.Start, m.End)
				mu.Unlock()
			})
			for i := 0; i < len(payload); i += 5 { // 5-byte "segments"
				end := i + 5
				if end > len(payload) {
					end = len(payload)
				}
				f.Write(payload[i:end])
			}
		}(id, payload)
	}
	wg.Wait()
}
