// Command mifgen compiles a ruleset and emits the Altera Memory
// Initialization Files (.mif) a hardware build of the accelerator loads
// into each string matching block's RAMs: state memory (324-bit words),
// match-number memory (27-bit words) and the default-transition lookup
// table.
//
// Usage:
//
//	mifgen -rules rules.txt -device stratix3 -out build/
//
// emits build/group0.state.mif, build/group0.match.mif,
// build/group0.lut.mif (and group1…, if the ruleset splits).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hwsim"
	"repro/internal/ruleset"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "ruleset file (required)")
		devName   = flag.String("device", "stratix3", "target device: cyclone3 or stratix3")
		outDir    = flag.String("out", ".", "output directory")
		groups    = flag.Int("groups", 0, "groups to split into (0 = smallest that fits)")
	)
	flag.Parse()
	if *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*rulesPath, *devName, *outDir, *groups); err != nil {
		fmt.Fprintln(os.Stderr, "mifgen:", err)
		os.Exit(1)
	}
}

func run(rulesPath, devName, outDir string, groups int) error {
	var dev device.Device
	switch devName {
	case "cyclone3":
		dev = device.Cyclone3
	case "stratix3":
		dev = device.Stratix3
	default:
		return fmt.Errorf("unknown device %q (want cyclone3 or stratix3)", devName)
	}
	f, err := os.Open(rulesPath)
	if err != nil {
		return err
	}
	set, err := ruleset.ParseFile(f)
	f.Close()
	if err != nil {
		return err
	}

	accel, err := hwsim.BuildAccelerator(dev, set, groups, core.Options{})
	if err != nil {
		return err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for gi, img := range accel.Images {
		mifs, err := img.ExportMIFs(dev.StateWordsPerBlock)
		if err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		for _, out := range []struct {
			suffix string
			data   []byte
		}{
			{"state", mifs.State},
			{"match", mifs.Match},
			{"lut", mifs.LUT},
		} {
			path := filepath.Join(outDir, fmt.Sprintf("group%d.%s.mif", gi, out.suffix))
			if err := os.WriteFile(path, out.data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(out.data))
		}
		fmt.Printf("group %d: %d states in %d/%d words (fill %.1f%%), %d match words\n",
			gi, img.Stats.States, img.Stats.StateWords, dev.StateWordsPerBlock,
			100*img.Stats.FillRatio, img.Stats.MatchWordsUsed)
	}
	tput, err := dev.AggregateThroughputBps(accel.Groups)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d group(s), %d concurrent packet set(s), %.1f Gbps\n",
		dev.Name, accel.Groups, accel.Sets, tput/1e9)
	return nil
}
