// Command dynntrace analyzes Chrome Trace Event Format files written by
// `dynnbench -trace`: it prints the overlap/utilization report derived from
// the simulated-time span set plus an ASCII stream-occupancy timeline, or
// validates a file's structure with -check.
//
// Usage:
//
//	dynntrace trace.json             # overlap report + occupancy timeline
//	dynntrace -blocks trace.json     # also the per-block breakdown
//	dynntrace -requests 10 trace.json # per-request causal timelines (serving traces)
//	dynntrace -check trace.json      # validate structure, exit 1 on errors
//
// Every mode loads only files that pass -check: X, i and M events, with
// process_name and thread_name as the only metadata. A trace re-saved by
// another tool with other phases (B/E, C) or metadata is rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dynnoffload/internal/obsv"
)

func main() {
	var (
		check    = flag.Bool("check", false, "validate the trace file structure and exit")
		width    = flag.Int("width", 72, "ASCII timeline width in cells")
		blocks   = flag.Bool("blocks", false, "print the per-block critical-path breakdown")
		requests = flag.Int("requests", 0, "print the N slowest per-request causal timelines (request-stamped serving traces)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dynntrace [-check] [-blocks] [-requests N] [-width N] trace.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *check, *blocks, *width, *requests); err != nil {
		fmt.Fprintln(os.Stderr, "dynntrace:", err)
		os.Exit(1)
	}
}

func run(path string, check, blocks bool, width, requests int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	if check {
		if err := obsv.CheckChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("%s: valid Chrome Trace Event Format\n", path)
		return nil
	}

	spans, meta, err := obsv.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	obsv.SortSpans(spans)
	tl := obsv.NewTimeline(spans, meta.LinkBWBytesPerSec)
	o := tl.Overlap()

	if meta.Label != "" {
		fmt.Printf("trace: %s (%d samples, %d spans)\n", meta.Label, meta.Samples, len(spans))
	} else {
		fmt.Printf("trace: %d spans\n", len(spans))
	}
	fmt.Printf("makespan   %12.3f ms simulated\n", msf(o.MakespanNS))
	fmt.Printf("compute    %12.3f ms\n", msf(o.ComputeNS))
	fmt.Printf("transfer   %12.3f ms  (%.1f MB over the link)\n", msf(o.TransferNS), float64(o.TransferBytes)/(1<<20))
	fmt.Printf("  hidden   %12.3f ms  under compute\n", msf(o.HiddenNS))
	fmt.Printf("  exposed  %12.3f ms  on the critical path\n", msf(o.ExposedNS))
	fmt.Printf("overlap efficiency %.1f%%", o.Efficiency*100)
	if meta.LinkBWBytesPerSec > 0 {
		fmt.Printf(", pcie utilization %.1f%%", o.PCIeUtil*100)
	}
	fmt.Println()
	fmt.Println()
	fmt.Println("stream     busy-ms      util   idle-gap p50/p99")
	for _, lane := range []string{obsv.LaneCompute, obsv.LaneH2D, obsv.LaneD2H} {
		g := o.IdleGaps[lane]
		fmt.Printf("%-8s %9.3f  %7.1f%%   %s / %s\n",
			lane, msf(o.LaneBusyNS[lane]), o.LaneUtil[lane]*100, nsUnit(g.P50NS), nsUnit(g.P99NS))
	}
	fmt.Println()
	tl.ASCII(os.Stdout, width)

	if blocks {
		fmt.Println()
		fmt.Println("block  compute-ms  prefetch-ms  evict-ms  ondemand-ms  retry-ms  stall-ms  spans")
		for _, c := range tl.Blocks() {
			fmt.Printf("%5d  %10.3f  %11.3f  %8.3f  %11.3f  %8.3f  %8.3f  %5d\n",
				c.Block, msf(c.ComputeNS), msf(c.PrefetchNS), msf(c.EvictNS),
				msf(c.OnDemandNS), msf(c.RetryNS), msf(c.StallNS), c.Spans)
		}
	}
	if requests > 0 {
		requestReport(spans, requests)
	}
	return nil
}

// requestReport assembles per-request causal timelines from a request-stamped
// serving trace and prints the N slowest: where each request spent its
// lifetime (queue wait vs per-lane device/link occupancy).
func requestReport(spans []obsv.Span, n int) {
	views := obsv.AssembleRequests(spans)
	fmt.Println()
	if len(views) == 0 {
		fmt.Println("no request-stamped spans (write the trace from a serving run)")
		return
	}
	sort.SliceStable(views, func(i, j int) bool {
		return views[i].EndNS-views[i].StartNS > views[j].EndNS-views[j].StartNS
	})
	if n > len(views) {
		n = len(views)
	}
	fmt.Printf("slowest %d of %d requests (e2e = arrival to completion, simulated)\n", n, len(views))
	fmt.Println("request  tenant      replica   e2e-ms  queue-ms  lane occupancy (busy-ms)")
	for _, v := range views[:n] {
		lanes := make([]string, 0, len(v.LaneBusyNS))
		for lane := range v.LaneBusyNS {
			lanes = append(lanes, lane)
		}
		sort.Strings(lanes)
		occ := ""
		for _, lane := range lanes {
			if lane == obsv.LaneHost {
				continue // host lane is queue wait + envelopes, reported separately
			}
			if occ != "" {
				occ += "  "
			}
			occ += fmt.Sprintf("%s=%.3f", lane, msf(v.LaneBusyNS[lane]))
		}
		fmt.Printf("%7d  %-10s  %7d  %7.3f  %8.3f  %s\n",
			v.Request, v.Tenant, v.Replica, msf(v.EndNS-v.StartNS), msf(v.QueueNS), occ)
	}
}

func msf(ns int64) float64 { return float64(ns) / 1e6 }

// nsUnit renders a duration with a readable unit (gaps span ns to ms).
func nsUnit(ns int64) string {
	switch {
	case ns == 0:
		return "-"
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
}
