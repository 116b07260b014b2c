// Command mmledger keeps BENCH_sim.json, the checked-in ledger of the
// benchmark's traced round: every simulated (`clock: sim`) value of every
// workload, the ladder's host allocations per call (the `*_allocs`
// rungs), and each workload's host end-to-end metrics for the record.
// It reads the result file `go run ./bench -rounds 1 -trace 1` writes
// (seed 1) and either checks it against the ledger or rewrites the ledger.
//
// Usage (from the repository root):
//
//	go run ./bench -rounds 1 -trace 1
//	go run ./cmd/mmledger                 check bench/out/result.json against BENCH_sim.json
//	go run ./cmd/mmledger -write          rewrite BENCH_sim.json from it
//	go run ./cmd/mmledger -ledger L -result R
//
// The check fails on any simulated value that differs, any metric that
// appears or disappears, and any allocs rung worse than the ledger's by
// more than 1 % or 0.01 per call, whichever is larger. Host end-to-end
// metrics (wall seconds, allocations, heap) are printed beside the
// ledger's and never gated: they are this machine's, not the model's.
// A change that moves a simulated value on purpose rewrites the ledger,
// like a golden baseline.
//
// Exit status: 0 when the result matches, 1 when it does not, 2 on
// usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Ledger is BENCH_sim.json.
type Ledger struct {
	Command string `json:"command"`
	// Sim holds every `clock: sim` median, by workload then metric.
	Sim map[string]map[string]float64 `json:"sim"`
	// Allocs holds the ladder's allocations per call, by rung. The
	// ladder runs once per invocation, so every workload reports the
	// same rungs.
	Allocs map[string]float64 `json:"allocs"`
	// Host holds each workload's host end-to-end metrics. Printed by the
	// check, never gated.
	Host map[string]map[string]float64 `json:"host"`
}

// command is the run a ledger is generated from.
const command = "go run ./bench -rounds 1 -trace 1"

// hostMetrics are the end-to-end host metrics the ledger records.
var hostMetrics = []string{"setup_s", "host_wall_s", "host_allocs_k", "host_alloc_mb", "host_live_mb"}

// stat is one metric of bench's result file.
type stat struct {
	Clock  string  `json:"clock"`
	Median float64 `json:"median"`
}

// fromResult builds a ledger from bench's result file: workload → metric
// → statistics.
func fromResult(res map[string]map[string]stat) (*Ledger, error) {
	l := &Ledger{Command: command, Sim: map[string]map[string]float64{},
		Allocs: map[string]float64{}, Host: map[string]map[string]float64{}}
	for w, ms := range res {
		sim, host := map[string]float64{}, map[string]float64{}
		for name, s := range ms {
			switch {
			case s.Clock == "sim":
				sim[name] = s.Median
			case s.Clock == "host" && strings.HasSuffix(name, "_allocs"):
				if v, ok := l.Allocs[name]; ok && v != s.Median {
					return nil, fmt.Errorf("%s: %s is %v here and %v in another workload", w, name, s.Median, v)
				}
				l.Allocs[name] = s.Median
			}
		}
		for _, name := range hostMetrics {
			if s, ok := ms[name]; ok {
				host[name] = s.Median
			}
		}
		l.Sim[w], l.Host[w] = sim, host
	}
	if len(l.Sim) == 0 {
		return nil, fmt.Errorf("no workloads in the result")
	}
	return l, nil
}

// allocsWorse reports whether an allocs rung got worse than its ledger
// value by more than 1 % or 0.01 per call, whichever is larger.
func allocsWorse(was, now float64) bool {
	return now-was > math.Max(0.01*was, 0.01)
}

// compare writes one line per difference between the ledger and a fresh
// result to w and reports whether the result passes: identical simulated
// values and metric sets, allocs within their tolerance. Host metrics are
// printed, not compared.
func compare(w io.Writer, was, now *Ledger) bool {
	ok := true
	fail := func(format string, a ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", a...)
	}
	for _, wl := range union(was.Sim, now.Sim) {
		a, inA := was.Sim[wl]
		b, inB := now.Sim[wl]
		if !inA || !inB {
			fail("%s: workload only in the %s", wl, side(inA))
			continue
		}
		for _, m := range union(a, b) {
			va, inA := a[m]
			vb, inB := b[m]
			switch {
			case !inA || !inB:
				fail("%s %s: metric only in the %s", wl, m, side(inA))
			case va != vb:
				fail("%s %s: sim %v, ledger %v", wl, m, vb, va)
			}
		}
	}
	for _, m := range union(was.Allocs, now.Allocs) {
		va, inA := was.Allocs[m]
		vb, inB := now.Allocs[m]
		switch {
		case !inA || !inB:
			fail("%s: rung only in the %s", m, side(inA))
		case allocsWorse(va, vb):
			fail("%s: %v allocs/op, ledger %v", m, vb, va)
		case va != vb:
			fmt.Fprintf(w, "ok   %s: %v allocs/op, ledger %v\n", m, vb, va)
		}
	}
	for _, wl := range union(was.Host, now.Host) {
		for _, m := range hostMetrics {
			va, inA := was.Host[wl][m]
			vb, inB := now.Host[wl][m]
			if inA && inB {
				fmt.Fprintf(w, "host %-13s %-14s %12.4g  ledger %12.4g  (%+.1f %%)\n", wl, m, vb, va, pct(va, vb))
			}
		}
	}
	return ok
}

func side(inLedger bool) string {
	if inLedger {
		return "ledger"
	}
	return "result"
}

func pct(was, now float64) float64 {
	if was == 0 {
		return 0
	}
	return 100 * (now - was) / was
}

// union returns the keys of a and b, sorted.
func union[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	ledgerPath := flag.String("ledger", "BENCH_sim.json", "the ledger file")
	resultPath := flag.String("result", "bench/out/result.json", "the result file of `"+command+"`")
	write := flag.Bool("write", false, "rewrite the ledger from the result instead of checking")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mmledger [-write] [-ledger path] [-result path]")
		os.Exit(2)
	}
	var res map[string]map[string]stat
	if err := readJSON(*resultPath, &res); err != nil {
		fmt.Fprintln(os.Stderr, "mmledger:", err)
		os.Exit(2)
	}
	now, err := fromResult(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmledger:", err)
		os.Exit(2)
	}
	if *write {
		b, _ := json.MarshalIndent(now, "", " ")
		if err := os.WriteFile(*ledgerPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mmledger:", err)
			os.Exit(2)
		}
		return
	}
	var was Ledger
	if err := readJSON(*ledgerPath, &was); err != nil {
		fmt.Fprintln(os.Stderr, "mmledger:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, &was, now) {
		fmt.Printf("mmledger: the result differs from %s; a change that moves it on purpose reruns `%s` and `mmledger -write`\n", *ledgerPath, command)
		os.Exit(1)
	}
	fmt.Printf("mmledger: the result matches %s\n", *ledgerPath)
}
