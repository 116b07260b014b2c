package config

import (
	"strings"
	"testing"

	"megammap/internal/control"
)

const controlSample = `
control:
  enabled: true
  target_util: 0.6
  repair: true
  scrub: false
  evict: true
`

func TestLoadControlSection(t *testing.T) {
	d, err := Load(controlSample)
	if err != nil {
		t.Fatal(err)
	}
	cc := d.Runtime.Control
	if !cc.Enabled {
		t.Fatal("control section did not enable the plane")
	}
	if cc.TargetUtil != 0.6 {
		t.Errorf("target wrong: %v", cc.TargetUtil)
	}
	if !cc.Repair || cc.Scrub || !cc.Evict {
		t.Errorf("governor enables wrong: %+v", cc)
	}
}

func TestLoadControlDefaultsAndAbsence(t *testing.T) {
	// No section: plane disabled, nothing to validate.
	d, err := Load("runtime:\n  replicas: 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Runtime.Control.Enabled {
		t.Fatal("control enabled without a control section")
	}
	// Bare section: enabled with Default() knobs.
	d, err = Load("control:\n  enabled: true\n")
	if err != nil {
		t.Fatal(err)
	}
	if cc := d.Runtime.Control; cc != control.Default() {
		t.Errorf("bare section lost defaults: %+v", cc)
	}
	// Explicitly disabled section stays off even with other knobs set.
	d, err = Load("control:\n  enabled: false\n  target_util: 0.3\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Runtime.Control.Enabled {
		t.Fatal("enabled: false ignored")
	}
}

// TestLoadControlRejectsDegenerate: a bad target is rejected by
// validation; the bounds that became constants are unknown keys.
func TestLoadControlRejectsDegenerate(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"zero-tick", "control:\n  tick: 0\n", `unknown key "tick"`},
		{"negative-tick", "control:\n  tick: -1ms\n", `unknown key "tick"`},
		{"nan-tick", "control:\n  tick: nan\n", `unknown key "tick"`},
		{"nan-target", "control:\n  target_util: nan\n", "target_util"},
		{"inf-target", "control:\n  target_util: 1e309\n", "target_util"},
		{"negative-target", "control:\n  target_util: -0.1\n", "target_util"},
		{"inverted-repair", "control:\n  repair_min: 10ms\n  repair_max: 1ms\n", `unknown key "repair_min"`},
		{"zero-burst", "control:\n  repair_burst: 0\n", `unknown key "repair_burst"`},
		{"inverted-scrub", "control:\n  scrub_min_pages: 64\n  scrub_max_pages: 8\n", `unknown key "scrub_min_pages"`},
		{"zero-prefetch", "control:\n  prefetch_min: 0\n", `unknown key "prefetch_min"`},
		{"inverted-evict", "control:\n  evict_low: 0.9\n  evict_high: 0.5\n", `unknown key "evict_low"`},
		{"nan-dirty", "control:\n  dirty_high: nan\n", `unknown key "dirty_high"`},
		{"low-boost", "control:\n  writeback_boost: 0.5\n", `unknown key "writeback_boost"`},
		{"unknown-key", "control:\n  burst_mode: on\n", "unknown key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.doc)
			if err == nil {
				t.Fatalf("accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
