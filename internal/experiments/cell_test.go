package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/leakcheck"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// TestMain holds the cell skeletons to closing every cluster they build,
// on every path the package's tests take through them — finished cells,
// the failed shutdown and the OOM-killed baseline below, the chaos cells:
// once the last test has returned no process is left and the live heap is
// within 8 MB (reports and telemetry exports the tests kept) of where the
// package started.
func TestMain(m *testing.M) { leakcheck.Main(m, 8<<20) }

// TestFailedShutdownFailsTheCell: a final stage-out that cannot be
// written (64KB of a file-backed vector into a 4KB PFS) makes
// DSM.Shutdown fail after every rank has returned cleanly. The cell must
// report it: runWorld used to print it to stdout and return success.
func TestFailedShutdownFailsTheCell(t *testing.T) {
	spec := testbedSpec(1, device.MB)
	spec.PFS = device.PFSProfile(4 << 10)
	cfg := tieredConfig()
	cfg.StagePeriod = 0 // only the shutdown stage-out path
	_, err := batchCell{
		spec:   spec,
		config: cfg,
		ranks:  1,
		body: func(r *mpi.Rank, d *core.DSM) (any, error) {
			v, err := core.Open[int64](d.NewClient(r.Proc(), 0), "file:///too/big.bin", core.Int64Codec{})
			if err != nil {
				return nil, err
			}
			const n = 8192
			v.Resize(n)
			v.SeqTxBegin(0, n, core.WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			return nil, nil
		},
	}.run()
	if err == nil || !strings.Contains(err.Error(), "shutdown") || !strings.Contains(err.Error(), "staging out") {
		t.Fatalf("cell error = %v, want the shutdown's staging failure", err)
	}
}

// TestOOMKilledBaselineIsAResult: an MPI Gray-Scott cell past the memory
// wall (two copies of the L=64 grid on nodes sized for L=48) reports the
// kill — oom 1, the DRAM it was bounded by, no runtime — and no error,
// while MegaMmap completes the same point. Any other failure of a
// baseline still fails the cell.
func TestOOMKilledBaselineIsAResult(t *testing.T) {
	out, err := RunFig6Cell(nil, 64, 48, true, 2, 4, 1)
	if err != nil {
		t.Fatalf("a killed baseline is a result, got error %v", err)
	}
	if _, timed := out.Metrics["runtime_s"]; out.Digests["oom"] != 1 || timed || out.Metrics["mem_mb"] <= 0 {
		t.Fatalf("killed cell report = %+v, want oom 1, mem_mb and no runtime_s", out)
	}
	if out, err = RunFig6Cell(nil, 64, 48, false, 2, 4, 1); err != nil || out.Metrics["runtime_s"] <= 0 {
		t.Fatalf("megammap past the wall: %+v, %v", out, err)
	}
	boom := errors.New("boom")
	failing := app{base: func(*mpi.Rank, *stager.Stager, job) (any, error) { return nil, boom }}
	if _, err := figureCell(nil, failing, true, testbedSpec(1, device.MB), tieredConfig(), job{ranks: 1}); !errors.Is(err, boom) {
		t.Fatalf("baseline error = %v, want %v", err, boom)
	}
}

// TestCellsOwnTheirTelemetry: telemetry options reach each cell as a
// value and its plane comes back on its own Report, so two cells with
// telemetry on can run side by side (a shared list of planes raced here).
// Each plane is the cell's own, and the cell's answer and counters equal
// the same cell's without telemetry.
func TestCellsOwnTheirTelemetry(t *testing.T) {
	cells := []func(*telemetry.Options) (Report, error){
		func(tel *telemetry.Options) (Report, error) { return RunScrubCell(tel, 2, 2, 256*device.KB, 1, "off") },
		func(tel *telemetry.Options) (Report, error) { return RunBFSCell(tel, 2, 2, 4096, 42, 0, 0, nil) },
	}
	opts := &telemetry.Options{Metrics: true, SamplePeriod: vtime.Millisecond}
	traced := make([]Report, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, run := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traced[i], errs[i] = run(opts)
		}()
	}
	wg.Wait()
	for i, run := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		tel := traced[i].Telemetry
		if tel == nil || tel.MetricsTable().Len() == 0 || tel.Sampler().Len() == 0 {
			t.Fatalf("cell %d's report carries no metrics and samples", i)
		}
		for j := range i {
			if traced[j].Telemetry == tel {
				t.Fatalf("cells %d and %d share one plane", j, i)
			}
		}
		plain, err := run(nil)
		if err != nil {
			t.Fatalf("cell %d without telemetry: %v", i, err)
		}
		if plain.Telemetry != nil {
			t.Errorf("cell %d without telemetry options carries a plane", i)
		}
		if !reflect.DeepEqual(traced[i].Digests, plain.Digests) || !reflect.DeepEqual(traced[i].Metrics, plain.Metrics) {
			t.Errorf("cell %d: telemetry moved the cell:\n%v %v\n%v %v", i, traced[i].Digests, traced[i].Metrics, plain.Digests, plain.Metrics)
		}
	}
}
