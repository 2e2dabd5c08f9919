package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// ParseSpec loads a comma-separated fault-plan specification into pl — the
// form the CLIs accept on the command line. Directives:
//
//	crash=PU@START+DUR        crash PU over [START, START+DUR); omit +DUR for forever
//	partition=A-B@START+DUR   drop all transfers on link A<->B over the window
//	inflate=A-B*F@START+DUR   stretch link A<->B latency by factor F (finite, >= 1) over the window
//	create-fail=P             sandbox creation fails with probability P
//	fork-fail=P               OS fork fails with probability P
//	handler-fail=P            handler invocation crashes with probability P
//
// Times and durations use Go duration syntax ("1s", "250ms"). Example:
//
//	crash=1@2s+500ms,inflate=0-1*4@1s+3s,handler-fail=0.02
func ParseSpec(pl *Plan, spec string) error {
	for _, raw := range strings.Split(spec, ",") {
		d := strings.TrimSpace(raw)
		if d == "" {
			continue
		}
		key, val, ok := strings.Cut(d, "=")
		if !ok {
			return fmt.Errorf("faults: directive %q: want key=value", d)
		}
		var err error
		switch key {
		case "crash":
			err = parseCrash(pl, val)
		case "partition":
			err = parseLink(pl, val, true)
		case "inflate":
			err = parseLink(pl, val, false)
		case "create-fail":
			pl.CreateFailProb, err = parseProb(val)
		case "fork-fail":
			pl.ForkFailProb, err = parseProb(val)
		case "handler-fail":
			pl.HandlerFailProb, err = parseProb(val)
		default:
			return fmt.Errorf("faults: unknown directive %q", key)
		}
		if err != nil {
			return fmt.Errorf("faults: directive %q: %w", d, err)
		}
	}
	return nil
}

// parseWindow parses "START" or "START+DUR" into a Window.
func parseWindow(s string) (Window, error) {
	start, durStr, hasDur := strings.Cut(s, "+")
	from, err := time.ParseDuration(start)
	if err != nil {
		return Window{}, fmt.Errorf("bad start time %q: %w", start, err)
	}
	if from < 0 {
		return Window{}, fmt.Errorf("start time %v before 0", from)
	}
	w := Window{From: sim.Time(from)}
	if hasDur {
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return Window{}, fmt.Errorf("bad duration %q: %w", durStr, err)
		}
		// A zero or negative duration would yield To <= From, and To == 0
		// reads as "forever": crash=1@1s+-1s would never revive.
		if dur <= 0 {
			return Window{}, fmt.Errorf("duration %v: want a positive duration", dur)
		}
		w.To = w.From.After(dur)
	}
	return w, nil
}

// parseCrash parses "PU@START[+DUR]".
func parseCrash(pl *Plan, val string) error {
	puStr, winStr, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want PU@START[+DUR]")
	}
	pu, err := strconv.Atoi(puStr)
	if err != nil {
		return fmt.Errorf("bad PU id %q: %w", puStr, err)
	}
	w, err := parseWindow(winStr)
	if err != nil {
		return err
	}
	pl.CrashPU(hw.PUID(pu), w.From, w.To)
	return nil
}

// parseLink parses "A-B@START[+DUR]" (partition) or "A-B*F@START[+DUR]"
// (inflate).
func parseLink(pl *Plan, val string, partition bool) error {
	endStr, winStr, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want A-B@START[+DUR]")
	}
	factor := 1.0
	if !partition {
		pair, fStr, ok := strings.Cut(endStr, "*")
		if !ok {
			return fmt.Errorf("want A-B*FACTOR@START[+DUR]")
		}
		f, err := strconv.ParseFloat(fStr, 64)
		if err != nil {
			return fmt.Errorf("bad factor %q: %w", fStr, err)
		}
		if math.IsInf(f, 0) || !(f >= 1) {
			return fmt.Errorf("factor %v: want a finite factor of at least 1", f)
		}
		endStr, factor = pair, f
	}
	aStr, bStr, ok := strings.Cut(endStr, "-")
	if !ok {
		return fmt.Errorf("bad link %q: want A-B", endStr)
	}
	a, err := strconv.Atoi(aStr)
	if err != nil {
		return fmt.Errorf("bad PU id %q: %w", aStr, err)
	}
	b, err := strconv.Atoi(bStr)
	if err != nil {
		return fmt.Errorf("bad PU id %q: %w", bStr, err)
	}
	w, err := parseWindow(winStr)
	if err != nil {
		return err
	}
	if partition {
		pl.PartitionLink(hw.PUID(a), hw.PUID(b), w.From, w.To)
	} else {
		pl.InflateLink(hw.PUID(a), hw.PUID(b), factor, w.From, w.To)
	}
	return nil
}

// parseProb parses a probability in [0, 1].
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q: %w", val, err)
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return 0, fmt.Errorf("probability %v out of [0, 1]", p)
	}
	return p, nil
}
