// Command dpiscan compiles a ruleset and scans files for matches — the
// end-user face of the library, equivalent to running a single string
// matching block in software.
//
// Usage:
//
//	dpiscan -rules rules.txt payload.bin [more files...]
//	dpiscan -rules rules.txt -stats             # compression report only
//	dpiscan -rules rules.txt -device stratix3   # add the hardware model report
//
// The rules file holds one Snort-style content string per line (optional
// "name:" prefix, |hex| escapes, #-comments):
//
//	web-phf: /cgi-bin/phf
//	shellcode: |90 90 90 90|
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	dpi "repro"
	"repro/fpga"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "ruleset file (required)")
		statsOnly = flag.Bool("stats", false, "print compression statistics and exit")
		devName   = flag.String("device", "", "also report the hardware model: cyclone3 or stratix3")
		groups    = flag.Int("groups", 0, "with -device: split the ruleset across this many blocks (0 = the fewest that fit)")
	)
	flag.Parse()
	if *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *rulesPath, flag.Args(), *statsOnly, *devName, *groups); err != nil {
		fmt.Fprintln(os.Stderr, "dpiscan:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, rulesPath string, files []string, statsOnly bool, devName string, groups int) error {
	f, err := os.Open(rulesPath)
	if err != nil {
		return err
	}
	rules, err := dpi.ParseRuleset(f)
	f.Close()
	if err != nil {
		return err
	}
	m, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		return err
	}
	st := m.Stats()
	fmt.Fprintf(w, "compiled %d patterns (%d chars): %d states, %.2f stored pointers/state (%.1f%% reduction)\n",
		rules.Len(), rules.CharCount(), st.States, st.AvgStored, 100*st.Reduction)

	if devName != "" {
		var dev fpga.Device
		switch devName {
		case "cyclone3":
			dev = fpga.Cyclone3
		case "stratix3":
			dev = fpga.Stratix3
		default:
			return fmt.Errorf("unknown device %q (want cyclone3 or stratix3)", devName)
		}
		a, err := fpga.New(m, dev, groups)
		if err != nil {
			return err
		}
		r := a.Report()
		fmt.Fprintf(w, "%s: %d blocks, %d groups, %d concurrent packet sets, %.1f Gbps, %d B memory, %.2f W max\n",
			r.Device, r.Blocks, r.Groups, r.ConcurrentSets, r.ThroughputGbps, r.MemoryBytes, r.MaxPowerW)
	}
	if statsOnly {
		return nil
	}
	if len(files) == 0 {
		return fmt.Errorf("no input files (or pass -stats)")
	}
	total := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		matches := m.FindAll(data)
		for _, mt := range matches {
			name := rules.Name(mt.PatternID)
			if name == "" {
				name = fmt.Sprintf("pattern-%d", mt.PatternID)
			}
			fmt.Fprintf(w, "%s: [%d:%d) %s\n", path, mt.Start, mt.End, name)
		}
		total += len(matches)
	}
	fmt.Fprintf(w, "%d matches in %d file(s)\n", total, len(files))
	return nil
}
