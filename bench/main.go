// Command bench is the repository's one benchmark: five workloads, host
// and simulated end-to-end metrics, and a per-layer ladder, all measured
// from outside the program through its public functions. README.md in
// this directory documents the metrics, the workloads and the protocol.
//
//	go run ./bench                                   every workload, 15 interleaved rounds
//	go run ./bench -trace 1                          the same plus the traced run and ladder
//	go run ./bench -workload kv_serve -seconds 20    one workload for a fixed time (the driver's form)
//	go run ./bench -compare a.json b.json            regression check between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workload is one set of inputs the benchmark runs. Why each was chosen
// is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(*runCtx) error
	// ref computes the reference output the run's digest must equal; nil
	// when the workload can check its outputs without one.
	ref func(*runCtx) error
}

var workloads = []*workload{
	{name: "kmeans_ooc", run: runKMeansOOC, ref: refKMeans},
	{name: "gs_ckpt", run: runGrayScott, ref: refGrayScott},
	{name: "kv_serve", run: runKVServe},
	{name: "hermes_scale", run: runHermesScale},
	{name: "kmeans_chaos", run: runKMeansChaos, ref: refKMeans},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var (
	flagWorkload = flag.String("workload", "", "run only this workload, for -seconds")
	flagSeed     = flag.Int64("seed", 1, "derives every generated input; the held-out seed is 2")
	flagSeconds  = flag.Float64("seconds", 0, "with -workload: how long to keep starting reps")
	flagTrace    = flag.Int("trace", 0, "1 adds the traced run: spans, per-layer counts and the ladder")
	flagSize     = flag.String("size", "full", "full or tiny (tiny is the smoke test's size)")
	flagRounds   = flag.Int("rounds", 15, "without -workload: interleaved rounds over all workloads")
	flagCompare  = flag.Bool("compare", false, "compare two result files given as arguments")
	flagChild    = flag.String("child", "", "internal: run one rep of this workload (or 'ladder') and print its report")
	flagRef      = flag.Bool("ref", false, "internal: with -child, run the workload's reference instead")
)

func main() {
	flag.Parse()
	var err error
	switch {
	case *flagCompare:
		err = compareFiles(flag.Args())
	case *flagChild != "":
		err = childMain()
	default:
		err = parentMain()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain runs one rep (or the reference, or the ladder) in this
// fresh process and prints its report as one JSON line.
func childMain() error {
	tiny := *flagSize == "tiny"
	var out any
	if *flagChild == "ladder" {
		out = runLadder(tiny)
	} else {
		w := findWorkload(*flagChild)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *flagChild)
		}
		if *flagRef {
			w = &workload{name: w.name, run: w.ref}
		}
		out = runRep(w, *flagSeed, tiny, *flagTrace == 1)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn re-executes this binary as a child and decodes its report. One
// rep per fresh process, one child at a time: a finished cluster leaves
// parked daemon goroutines and reachable heap behind (see README), so
// reps sharing a process slow each other down. The engine runs one
// simulated process at a time, so a second P buys only cross-thread
// wake-ups: children get GOMAXPROCS=1 unless the caller set it, which on
// the 2-core sandbox made host_wall_s a quarter lower and three times
// steadier.
func spawn(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if _, set := os.LookupEnv("GOMAXPROCS"); !set {
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	}
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return json.Unmarshal(raw, out)
}

func childArgs(w *workload, traced bool) []string {
	return []string{"-child", w.name, "-seed", strconv.FormatInt(*flagSeed, 10),
		"-size", *flagSize, "-trace", strconv.Itoa(btoi(traced))}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// series collects the reps of one workload in one invocation.
type series struct {
	w        *workload
	ref      *rep
	untraced []*rep
	traced   []*rep
	took     []float64 // wall seconds of each child, to plan the next
}

func (s *series) add(traced bool) error {
	r := new(rep)
	t0 := time.Now()
	if err := spawn(r, childArgs(s.w, traced)...); err != nil {
		return err
	}
	s.took = append(s.took, time.Since(t0).Seconds())
	if traced {
		s.traced = append(s.traced, r)
	} else {
		s.untraced = append(s.untraced, r)
	}
	return nil
}

// parentMain is both forms of the one command. With -workload it is the
// driver's form: keep starting reps of that workload until -seconds have
// passed (at least three). Without, it runs -rounds rounds over every
// workload, one rep of each per round, so a noisy spell on the machine
// spreads over all of them instead of landing on one.
func parentMain() error {
	var set []*series
	if *flagWorkload != "" {
		w := findWorkload(*flagWorkload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *flagWorkload)
		}
		set = []*series{{w: w}}
	} else {
		for _, w := range workloads {
			set = append(set, &series{w: w})
		}
	}
	traced := *flagTrace == 1
	start := time.Now()

	var lad *ladder
	if traced {
		lad = new(ladder)
		if err := spawn(lad, "-child", "ladder", "-size", *flagSize); err != nil {
			return err
		}
	}
	for _, s := range set {
		if s.w.ref == nil {
			continue
		}
		s.ref = new(rep)
		if err := spawn(s.ref, append(childArgs(s.w, false), "-ref")...); err != nil {
			return err
		}
	}
	for round := 0; ; round++ {
		if *flagWorkload == "" && round >= *flagRounds {
			break
		}
		if *flagWorkload != "" && round >= 3 {
			// Stop when the next rep (a traced round is two) would end
			// past the deadline.
			next := median(set[0].took) * float64(1+btoi(traced))
			if time.Since(start).Seconds()+next > *flagSeconds {
				break
			}
		}
		for _, s := range set {
			if err := s.add(false); err != nil {
				return err
			}
			if traced {
				if err := s.add(true); err != nil {
					return err
				}
			}
		}
	}

	res := result{}
	ok := true
	var spans []span
	attempted, failed := int64(0), int64(0)
	for _, s := range set {
		sum := summarize(s, lad)
		res[s.w.name] = sum.stats
		attempted, failed = attempted+sum.attempted, failed+sum.failed
		for _, v := range sum.violations {
			ok = false
			fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", s.w.name, v)
		}
		for _, r := range s.traced {
			spans = appendSpans(spans, r.Spans)
		}
		printTable(s.w.name, sum.stats, traced)
	}
	if lad != nil {
		spans = appendSpans(spans, lad.Spans)
	}
	if err := writeOut("result.json", res); err != nil {
		return err
	}
	if traced {
		if err := writeOut("trace.json", spans); err != nil {
			return err
		}
	}
	if *flagWorkload != "" {
		printDriverLine(res[*flagWorkload], ok && failed == 0, attempted, failed, traced)
	}
	if !ok || failed > 0 {
		return fmt.Errorf("%d of %d operations failed or an output check did not pass", failed, attempted)
	}
	return nil
}

// writeOut writes one of the benchmark's output files under bench/out.
func writeOut(name string, v any) error {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}
