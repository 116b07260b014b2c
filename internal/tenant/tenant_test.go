package tenant

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func validSpec(name string) Spec {
	return Spec{
		Name: name, Class: Latency, Rate: 1000, ZipfS: 1.2, Keys: 1024,
		MaxInFlight: 4, QueueDepth: 8,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string // substring of the error, "" = valid
	}{
		{"valid", func(c *Config) {}, ""},
		{"no tenants", func(c *Config) { c.Tenants = nil }, "no tenants"},
		{"empty name", func(c *Config) { c.Tenants[0].Name = "" }, "empty tenant name"},
		{"dup name", func(c *Config) { c.Tenants = append(c.Tenants, validSpec("a")) }, "duplicate"},
		{"bad class", func(c *Config) { c.Tenants[0].Class = Class(9) }, "unknown class"},
		{"neg quota", func(c *Config) { c.Tenants[0].FastQuota = -1 }, "fast quota"},
		{"zero rate", func(c *Config) { c.Tenants[0].Rate = 0 }, "rate must be > 0"},
		{"nan rate", func(c *Config) { c.Tenants[0].Rate = math.NaN() }, "rate must be > 0"},
		{"low zipf", func(c *Config) { c.Tenants[0].ZipfS = 1 }, "zipf s"},
		{"zero keys", func(c *Config) { c.Tenants[0].Keys = 0 }, "keys"},
		{"bad wfrac", func(c *Config) { c.Tenants[0].WriteFrac = 1.5 }, "write fraction"},
		{"zero inflight", func(c *Config) { c.Tenants[0].MaxInFlight = 0 }, "in-flight"},
		{"zero queue", func(c *Config) { c.Tenants[0].QueueDepth = 0 }, "queue depth"},
	}
	for _, tc := range cases {
		c := Config{Tenants: []Spec{validSpec("a")}}
		tc.mod(&c)
		err := c.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{Tenants: []Spec{{Name: "a", Class: Batch}}}.WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	tn := c.Tenants[0]
	if tn.Rate <= 0 || tn.ZipfS <= 1 || tn.Keys <= 0 || tn.MaxInFlight <= 0 || tn.QueueDepth <= 0 {
		t.Fatalf("defaults left zero fields: %+v", tn)
	}
}

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{{"latency", Latency}, {"batch", Batch}} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseClass("gold"); err == nil {
		t.Error("ParseClass(gold) accepted")
	}
}

// TestAdmissionCaps: the queue bounds arrivals, the cap bounds dispatch,
// and sheds are typed and countable.
func TestAdmissionCaps(t *testing.T) {
	a := NewAdmission("t0", 2, 3)
	for i := 0; i < 3; i++ {
		if err := a.Arrive(); err != nil {
			t.Fatalf("arrival %d shed with queue space: %v", i, err)
		}
	}
	err := a.Arrive()
	if !errors.Is(err, ErrAdmissionShed) {
		t.Fatalf("full-queue arrival error = %v, want ErrAdmissionShed", err)
	}
	if !strings.Contains(err.Error(), "t0") {
		t.Fatalf("shed error %q does not name the tenant", err)
	}
	if a.Shed() != 1 || a.admitted != 3 || a.Queued() != 3 {
		t.Fatalf("counts after shed: shed=%d admitted=%d queued=%d", a.Shed(), a.admitted, a.Queued())
	}

	if !a.Dispatch() || !a.Dispatch() {
		t.Fatal("dispatch under cap refused")
	}
	if a.Dispatch() {
		t.Fatal("dispatch over in-flight cap allowed")
	}
	if a.InFlight() != 2 || a.Queued() != 1 {
		t.Fatalf("inflight=%d queued=%d after dispatches", a.InFlight(), a.Queued())
	}

	a.Complete()
	if a.InFlight() != 1 || a.completed != 1 {
		t.Fatalf("inflight=%d completed=%d after complete", a.InFlight(), a.completed)
	}
	if !a.Dispatch() {
		t.Fatal("freed slot not dispatchable")
	}
}

// TestShedAllocatesNothing: the overload path is the one that runs most
// per second, so a shed hands back the Admission's one prebuilt error —
// same text as a freshly formatted one, still matching ErrAdmissionShed.
func TestShedAllocatesNothing(t *testing.T) {
	a := NewAdmission("front", 1, 2)
	for a.Arrive() == nil {
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { err = a.Arrive() }); n != 0 {
		t.Errorf("a shed Arrive allocates %v times, want 0", n)
	}
	want := fmt.Sprintf("tenant %q: %v (depth %d)", "front", ErrAdmissionShed, 2)
	if !errors.Is(err, ErrAdmissionShed) || err.Error() != want {
		t.Errorf("shed error = %q, want %q wrapping ErrAdmissionShed", err, want)
	}
	if a.Shed() != 102 { // the fill loop's one + AllocsPerRun's warm-up + 100
		t.Errorf("shed count = %d, want 102", a.Shed())
	}
}

// TestAdmissionDeterministicShedOrder: with a fixed arrival pattern the
// same arrivals shed on every run — admission is pure call-order state.
func TestAdmissionDeterministicShedOrder(t *testing.T) {
	run := func() []int {
		a := NewAdmission("t", 1, 2)
		var shed []int
		for i := 0; i < 10; i++ {
			if err := a.Arrive(); err != nil {
				shed = append(shed, i)
			}
			if i%3 == 2 { // drain one request every third arrival
				if a.Dispatch() {
					a.Complete()
				}
			}
		}
		return shed
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("pattern shed nothing; test needs a tighter queue")
	}
	for trial := 0; trial < 3; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trial %d shed %v, want %v", trial, got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d shed %v, want %v", trial, got, first)
			}
		}
	}
}

// TestAdmissionGovernorActuation: SetMaxInFlight squeezes and relaxes
// dispatch, clamped at one slot.
func TestAdmissionGovernorActuation(t *testing.T) {
	a := NewAdmission("t", 4, 8)
	for i := 0; i < 6; i++ {
		if err := a.Arrive(); err != nil {
			t.Fatal(err)
		}
	}
	a.SetMaxInFlight(0) // clamps to 1
	if a.maxInFlight != 1 {
		t.Fatalf("cap = %d, want clamp to 1", a.maxInFlight)
	}
	if !a.Dispatch() || a.Dispatch() {
		t.Fatal("squeezed cap dispatched wrong count")
	}
	a.SetMaxInFlight(3)
	if !a.Dispatch() || !a.Dispatch() || a.Dispatch() {
		t.Fatal("relaxed cap dispatched wrong count")
	}
}
