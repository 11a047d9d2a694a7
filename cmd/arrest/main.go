// Command arrest simulates one aircraft arrestment on the experiment
// target, optionally with one injected error, and reports the
// arrestment readouts. With -csv it streams the monitored signals as a
// CSV trace (usable as calibration input for cmd/sigmon).
//
// Usage:
//
//	arrest [-mass kg] [-velocity m/s] [-seed n] [-version all|ea1..ea7|none]
//	       [-error S1..S112] [-observe ms] [-csv] [-every ms]
//
// Mass and velocity must lie in the paper's test-case envelope
// (8000-20000 kg, 40-70 m/s, bounds included), and -observe and -every
// must be positive; arrest refuses other values with an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"easig"
	"easig/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arrest:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("arrest", flag.ExitOnError)
	var (
		mass     = fs.Float64("mass", 14000, "aircraft mass in kg (8000-20000)")
		velocity = fs.Float64("velocity", 55, "engagement velocity in m/s (40-70)")
		seed     = fs.Int64("seed", 1, "sensor-noise seed")
		version  = fs.String("version", "all", "software version: all, ea1..ea7, none")
		errID    = fs.String("error", "", "inject error S1..S112 from error set E1")
		observe  = fs.Int64("observe", 40000, "observation period in ms")
		csvOut   = fs.Bool("csv", false, "stream monitored signals as CSV to stdout")
		every    = fs.Int64("every", 7, "CSV sampling period in ms")
		dump     = fs.Bool("dump", false, "hex-dump the master node memory after the run")
	)
	fs.Parse(args)
	if err := checkFlags(*mass, *velocity, *observe, *every); err != nil {
		return err
	}

	ver, err := parseVersion(*version)
	if err != nil {
		return err
	}
	tc := easig.TestCase{MassKg: *mass, VelocityMS: *velocity}

	var injected *easig.InjectionError
	if *errID != "" {
		for _, e := range easig.BuildE1() {
			if strings.EqualFold(e.ID, *errID) {
				e := e
				injected = &e
				break
			}
		}
		if injected == nil {
			return fmt.Errorf("unknown E1 error %q (expect S1..S112)", *errID)
		}
	}

	if *csvOut {
		return streamCSV(tc, ver, *seed, *observe, *every)
	}
	if *dump {
		return runAndDump(tc, ver, injected, *seed, *observe)
	}

	res, err := easig.Run(easig.RunConfig{
		TestCase:        tc,
		Version:         ver,
		Error:           injected,
		ObservationMs:   *observe,
		Seed:            *seed,
		FullObservation: true,
	})
	if err != nil {
		return err
	}

	fmt.Printf("Arrestment: mass %.0f kg, engagement %.1f m/s, version %v\n", *mass, *velocity, ver)
	if injected != nil {
		fmt.Printf("Injected:   %v (period 20 ms)\n", *injected)
	}
	if res.Stopped {
		fmt.Printf("Stopped:    %.1f m at t=%.2f s\n", res.DistanceM, float64(res.StoppedMs)/1000)
	} else {
		fmt.Printf("NOT STOPPED within %.1f s (travel %.1f m)\n", float64(*observe)/1000, res.DistanceM)
	}
	fmt.Printf("Peaks:      force %.0f kN, retardation %.2f g\n", res.PeakForceN/1000, res.PeakRetardationMS2/9.80665)
	if res.Failed {
		fmt.Printf("FAILURE:    %s at t=%.2f s (%s)\n", res.Failure.Kind, float64(res.Failure.TimeMs)/1000, res.Failure.Detail)
	} else {
		fmt.Println("Failure:    none (all constraints honoured)")
	}
	if res.Detected {
		fmt.Printf("Detection:  %d violations, first at t=%.2f s (latency %d ms)\n",
			res.Detections, float64(res.FirstDetectionMs)/1000, res.LatencyMs)
	} else {
		fmt.Println("Detection:  none")
	}
	return nil
}

// streamCSV runs the system step by step and emits the monitored
// signals at the sampling period.
func streamCSV(tc easig.TestCase, ver easig.Version, seed, observe, every int64) error {
	sys, err := easig.NewArrestingSystem(easig.ArrestingSystemConfig{
		TestCase: tc,
		Seed:     seed,
		Version:  ver,
	})
	if err != nil {
		return err
	}
	set := trace.NewSet(every,
		"SetValue", "IsValue", "i", "pulscnt", "ms_slot_nbr", "mscnt", "OutValue")
	v := sys.Master().Vars()
	for ms := int64(0); ms < observe; ms++ {
		sys.StepMs()
		if ms%every == 0 {
			if err := set.Append(
				int64(v.SetValue.Get()), int64(v.IsValue.Get()), int64(v.I.Get()),
				int64(v.PulsCnt.Get()), int64(v.MsSlotNbr.Get()), int64(v.MsCnt.Get()),
				int64(v.OutValue.Get()),
			); err != nil {
				return err
			}
		}
		if _, stopped := sys.Env().Stopped(); stopped && ms > 1000 {
			break
		}
	}
	return set.WriteCSV(os.Stdout)
}

// runAndDump replays the run step by step and hex-dumps the master
// node's memory (post-mortem state inspection).
func runAndDump(tc easig.TestCase, ver easig.Version, injected *easig.InjectionError, seed, observe int64) error {
	sys, err := easig.NewArrestingSystem(easig.ArrestingSystemConfig{
		TestCase: tc,
		Seed:     seed,
		Version:  ver,
	})
	if err != nil {
		return err
	}
	mem := sys.Master().Memory()
	for ms := int64(0); ms < observe; ms++ {
		if injected != nil && ms >= 500 && (ms-500)%20 == 0 {
			if err := mem.FlipBit(injected.Addr, injected.Bit); err != nil {
				return err
			}
		}
		sys.StepMs()
	}
	return mem.Dump(os.Stdout)
}

// checkFlags rejects inputs the simulation would otherwise accept
// silently: a test case outside the paper's envelope (mass 8000-20000
// kg, velocity 40-70 m/s, bounds inclusive), a non-positive -observe
// (the normal mode would run the library's 40 s default, -csv would
// write an empty trace) and a non-positive -every.
func checkFlags(mass, velocity float64, observe, every int64) error {
	switch {
	case !(mass >= 8000 && mass <= 20000):
		return fmt.Errorf("-mass must be within 8000-20000 kg, got %g", mass)
	case !(velocity >= 40 && velocity <= 70):
		return fmt.Errorf("-velocity must be within 40-70 m/s, got %g", velocity)
	case observe <= 0:
		return fmt.Errorf("-observe must be a positive number of ms, got %d", observe)
	case every <= 0:
		return fmt.Errorf("-every must be a positive number of ms, got %d", every)
	}
	return nil
}

func parseVersion(s string) (easig.Version, error) {
	switch strings.ToLower(s) {
	case "all":
		return easig.VersionAll, nil
	case "none":
		return easig.VersionNone, nil
	case "ea1", "ea2", "ea3", "ea4", "ea5", "ea6", "ea7":
		return easig.Version(s[2] - '0'), nil
	default:
		return 0, fmt.Errorf("unknown version %q", s)
	}
}
