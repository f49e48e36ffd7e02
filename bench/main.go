// Command bench is gecco-serve's benchmark of record: a closed-loop load
// generator that starts the service's own HTTP handlers in this process on
// loopback, drives one of five seeded workloads at them, checks the answers
// against the library, and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct":true,"attempted":1234,"failed":0,"metrics":{"latency_p50_ms":{"value":23.1,"unit":"ms"},...}}
//
// Usage, from the repository root (bench/run.sh builds the binary first):
//
//	bash bench/run.sh -workload upload-cold -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -seed 1 -out run.json            # all five workloads
//	bash bench/run.sh -workload refine-warm -trace 1   # per-layer metrics
//	bash bench/run.sh -repeat 5                        # medians and spreads
//	bash bench/run.sh -compare base-loadgen -repeat 10 # paired verdict per workload
//
// See bench/README.md for the workloads, the metrics and what moves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase; an untraced run extends it until 1,000 ops are measured")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		traceDir = flag.String("trace-dir", "bench/out", "directory a traced run writes <workload>.trace.json to")
		repeat   = flag.Int("repeat", 1, "runs per workload (pairs, with -compare), with seeds seed..seed+repeat-1")
		out      = flag.String("out", "", "write the run record to this file")
		compare  = flag.String("compare", "", "benchmark binary built from the parent commit, to run in pairs against this one")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark description: the metrics, their units, directions and bounds")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace is 0 or 1")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	var selected []workload
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{w}
	} else {
		selected = workloads
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, spec: sp, out: os.Stdout}

	switch {
	case *compare != "":
		if *repeat < minPairs || rc.trace {
			fatalf("-compare runs untraced pairs and needs -repeat %d or more", minPairs)
		}
		res, worse, err := compareWith(*compare, selected, *repeat, rc, *out)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		if worse {
			os.Exit(1)
		}
	case len(selected) == 1 && *repeat == 1 && *out == "":
		res, err := runWorkload(selected[0], rc)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
	default:
		res, err := runMany(selected, *repeat, rc, *out)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
	}
}

func printResult(res result) {
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
