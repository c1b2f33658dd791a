// Command tsbuild constructs a TreeSketch synopsis from an XML document.
//
// Usage:
//
//	tsbuild -in xmark.xml -budget 50 -o xmark.syn
//	tsbuild -in xmark.xml -budget 50 -v -metrics build-metrics.json -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

func main() {
	var (
		in       = flag.String("in", "", "input XML document (required)")
		budgetKB = flag.Int("budget", 50, "space budget in KB")
		out      = flag.String("o", "", "output synopsis file (optional)")
		uh       = flag.Int("uh", 10000, "candidate-pool upper bound Uh")
		lh       = flag.Int("lh", 100, "candidate-pool lower bound Lh")
		workers  = flag.Int("workers", 0, "candidate-evaluation workers (0 = GOMAXPROCS); the synopsis is identical for any value")
		verbose  = flag.Bool("v", false, "report construction progress milestones")
	)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if err := obsFlags.Start(); err != nil {
		fatal(err)
	}

	doc, err := xmltree.ParseFile(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("document:       %d elements\n", doc.Size())

	t0 := time.Now()
	st := stable.Build(doc)
	fmt.Printf("stable summary: %d classes, %.1f KB (%.2fs)\n",
		st.NumNodes(), float64(st.SizeBytes())/1024, time.Since(t0).Seconds())

	opts := tsbuild.Options{
		BudgetBytes: *budgetKB << 10,
		HeapUpper:   *uh,
		HeapLower:   *lh,
		Workers:     *workers,
	}
	if *verbose {
		opts.Progress = func(e tsbuild.ProgressEvent) {
			if e.Final {
				return // the summary lines below cover the final state
			}
			fmt.Printf("progress:       %d merges, %d pool builds, %.1f KB / %.1f KB, pool %d (%.2fs)\n",
				e.Merges, e.PoolBuilds, float64(e.SizeBytes)/1024, float64(e.BudgetBytes)/1024,
				e.PoolSize, e.Elapsed.Seconds())
		}
	}
	sk, stats := tsbuild.Build(st, opts)
	fmt.Printf("treesketch:     %d clusters, %.1f KB (budget %d KB, reached=%v)\n",
		stats.FinalNodes, float64(stats.FinalBytes)/1024, *budgetKB, stats.BudgetReached)
	fmt.Printf("construction:   %d merges, %d pool builds, %d pair evals, %.2fs\n",
		stats.Merges, stats.PoolBuilds, stats.PairEvals, stats.Elapsed.Seconds())
	fmt.Printf("heap:           %d pushes, %d evictions, max size %d, %d stale pops\n",
		stats.HeapPushes, stats.HeapEvictions, stats.MaxHeapSize, stats.StalePops)
	fmt.Printf("pool upkeep:    %d reevals, %d rebuilds, %d truncated\n",
		stats.Reevals, stats.PoolRebuilds, stats.PoolTruncated)
	fmt.Printf("squared error:  %.1f\n", stats.FinalSqErr)

	if *out != "" {
		if err := sk.SaveFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("saved:          %s\n", *out)
	}
	if err := obsFlags.Finish(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsbuild:", err)
	os.Exit(1)
}
