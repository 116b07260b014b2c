package experiments

import (
	"strings"
	"testing"

	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/mpi"
)

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
		body: func(r *mpi.Rank, d *core.DSM) error {
			v, err := core.Open[int64](d.NewClient(r.Proc(), 0), "file:///too/big.bin", core.Int64Codec{})
			if err != nil {
				return err
			}
			const n = 8192
			v.Resize(n)
			v.SeqTxBegin(0, n, core.WriteOnly)
			for i := int64(0); i < n; i++ {
				v.Set(i, i)
			}
			v.TxEnd()
			return nil
		},
	}.run()
	if err == nil || !strings.Contains(err.Error(), "shutdown") || !strings.Contains(err.Error(), "staging out") {
		t.Fatalf("cell error = %v, want the shutdown's staging failure", err)
	}
}
