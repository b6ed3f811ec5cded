// Command perfbench is the repository's benchmark. Each run boots
// fresh cmd/serve processes, brings one of three workloads (audit,
// publish, certify) to steady state, drives it closed-loop from this
// process for a fixed window, checks the server's answers against
// in-process core.Engine answers, and prints its metrics; the last
// line of standard output is one JSON result object. With --trace 1 it
// measures the per-layer ladder instead. See README.md.
//
// Usage (run.sh builds both binaries and passes -serve):
//
//	perfbench -serve PATH --workload audit|publish|certify --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	servePath := flag.String("serve", "", "path of the cmd/serve binary")
	name := flag.String("workload", "", "workload: audit, publish or certify")
	seed := flag.Int64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *servePath == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -serve PATH, --workload audit|publish|certify, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	b := func(cfg serveConfig) (*target, error) { return bootServe(*servePath, cfg.flags()) }
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTrace(w, b, *seed, d)
	} else {
		rep, err = runE2E(w, b, *seed, d)
	}
	if err == nil {
		err = rep.validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s (seed %d, %ds window, closed-loop clients: %d): %s\n", w.name, *seed, *seconds, w.clients, w.why)
	fmt.Printf("serve flags: %s\n", strings.Join(w.serve.flags(), " "))
	printReport(rep)
}

// printReport writes the human-readable tables, then the result line.
func printReport(rep *report) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	if len(rep.Classes) > 0 {
		fmt.Fprintln(tw, "class\tattempted\tsucceeded\tfailed\t")
		for _, c := range rep.Classes {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t\n", c.Class, c.Attempted, c.Succeeded, c.Failed)
		}
		fmt.Fprintln(tw, "\t\t\t\t")
	}
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\t")
	for _, m := range rep.Metrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	tw.Flush()
	for _, n := range rep.Notes {
		fmt.Println("FAIL:", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
