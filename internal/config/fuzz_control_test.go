package config

import (
	"slices"
	"strings"
	"testing"
)

// FuzzLoadControl targets the control: section loader and validator.
// The contract: Load never panics; any accepted document yields a
// control config that Validate accepts (so core.New cannot panic on it)
// and a control section made of the five keys the loader knows — NaN/Inf
// targets are rejected by validation, and the bounds that became
// constants (tick, repair_min, ...) are rejected as unknown keys.
func FuzzLoadControl(f *testing.F) {
	f.Add(controlSample)
	f.Add("control:\n  enabled: true\n")
	f.Add("control:\n  enabled: false\n  tick: 0ms\n")
	f.Add("control:\n  tick: 0\n")
	f.Add("control:\n  tick: -5ms\n")
	f.Add("control:\n  target_util: nan\n")
	f.Add("control:\n  target_util: -0.5\n")
	f.Add("control:\n  target_util: 1e309\n")
	f.Add("control:\n  repair_min: 10ms\n  repair_max: 1ms\n")
	f.Add("control:\n  scrub_min_pages: 0\n")
	f.Add("control:\n  scrub_min_pages: 64\n  scrub_max_pages: 8\n")
	f.Add("control:\n  prefetch_min: 0\n")
	f.Add("control:\n  evict_low: 0.9\n  evict_high: 0.5\n")
	f.Add("control:\n  dirty_high: nan\n")
	f.Add("control:\n  writeback_boost: 0.5\n")
	f.Add("control:\n  repair_burst: 0\n")
	f.Add("control:\n  no_such_knob: 1\n")
	f.Add("control:\n  repair: maybe\n")
	f.Fuzz(func(t *testing.T, doc string) {
		d, err := Load(doc)
		if err != nil {
			if d != nil {
				t.Errorf("Load returned both a deployment and error %v", err)
			}
			return
		}
		if d == nil {
			t.Fatal("Load returned nil, nil")
		}
		if err := d.Runtime.Control.Validate(); err != nil {
			t.Errorf("accepted document carries an invalid control config: %v", err)
		}
		if d.Runtime.Control.Enabled && !strings.Contains(doc, "control") {
			t.Error("control plane enabled out of nowhere")
		}
		p, _ := Parse(doc) // Load parsed it
		if sec, ok := p.Section("control"); ok {
			for _, k := range sec.Keys() {
				if !slices.Contains([]string{"enabled", "target_util", "repair", "scrub", "evict"}, k) {
					t.Errorf("accepted control key %q", k)
				}
			}
		}
	})
}
