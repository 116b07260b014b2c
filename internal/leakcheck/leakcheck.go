// Package leakcheck is the test helpers' check that a cluster which was
// closed is gone: the goroutines of its processes and the heap they kept
// reachable. A daemon nobody ends, or a cell path that forgets
// cluster.Close, then fails the package that added it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// baseline is the process's goroutine count and live heap at one moment.
type baseline struct {
	goroutines int
	heap       uint64
}

func take() baseline {
	return baseline{runtime.NumGoroutine(), liveHeap(1)}
}

// check reports an error if, after everything built since take has been
// closed and dropped, more goroutines exist than at take or the live heap
// has grown by more than slack bytes. slack is what the caller still
// references on purpose (results, a dataset on a PFS it keeps).
func (b baseline) check(slack uint64) error {
	// A simulated process is gone the moment it is ended, but the testing
	// package's own goroutines (a parallel subtest's runner) exit a little
	// after they report: give those a moment before calling it a leak.
	n := runtime.NumGoroutine()
	for wait := time.Millisecond; n > b.goroutines && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
		n = runtime.NumGoroutine()
	}
	if n > b.goroutines {
		return fmt.Errorf("leakcheck: %d goroutines, %d before: a process outlived its cluster (Cluster.Close not called, or a daemon it cannot end)", n, b.goroutines)
	}
	// Garbage only adds to HeapAlloc: a heap already inside the slack needs
	// no collection to pass. Otherwise collect, twice: the second cycle
	// frees what finalizers and pools released in the first.
	if heap := liveHeap(0); heap > b.heap+slack {
		if heap = liveHeap(2); heap > b.heap+slack {
			return fmt.Errorf("leakcheck: live heap %d KB, %d KB before (slack %d KB): a closed cluster is still reachable", heap>>10, b.heap>>10, slack>>10)
		}
	}
	return nil
}

// AtCleanup takes the baseline now, before the caller builds anything, and
// registers a cleanup of tb that checks it. A helper that builds one
// cluster passes its Close as close, which runs first; a test whose
// clusters are closed by the code under test passes nil. A test that has
// failed already is not checked: one that died mid-run leaves what it
// leaves.
func AtCleanup(tb testing.TB, slack uint64, close func()) {
	b := take()
	tb.Cleanup(func() {
		if close != nil {
			close()
		}
		if tb.Failed() {
			return
		}
		if err := b.check(slack); err != nil {
			tb.Error(err)
		}
	})
}

// Main is a TestMain body for a package whose tests must, between them,
// close every cluster they build, whatever helper they went through: the
// baseline is taken before the first test and checked after the last.
func Main(m *testing.M, slack uint64) {
	b := take()
	code := m.Run()
	if code == 0 {
		if err := b.check(slack); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func liveHeap(cycles int) uint64 {
	for i := 0; i < cycles; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
