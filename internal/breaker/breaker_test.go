package breaker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreaker drives one breaker per case through a sequence of steps:
// "x" records a failure, "ok" a success, "wait" sleeps past the probe
// interval; each step checks the transition it reported and what
// Allow and Open say afterwards.
func TestBreaker(t *testing.T) {
	fail := errors.New("boom")
	type step struct {
		do    string
		trans Transition
		allow bool
		open  bool
	}
	cases := []struct {
		name  string
		after int
		steps []step
	}{
		{"stays closed below the threshold", 3, []step{
			{"x", Unchanged, true, false},
			{"x", Unchanged, true, false},
			{"ok", Unchanged, true, false},
			{"x", Unchanged, true, false},
			{"x", Unchanged, true, false},
		}},
		{"opens on the threshold, once", 3, []step{
			{"x", Unchanged, true, false},
			{"x", Unchanged, true, false},
			{"x", Opened, false, true},
			{"x", Unchanged, false, true},
		}},
		{"one probe per interval, success closes", 1, []step{
			{"x", Opened, false, true},
			{"wait", Unchanged, true, true},
			{"ok", Closed, true, false},
			{"ok", Unchanged, true, false},
		}},
		{"failed probe keeps it open", 1, []step{
			{"x", Opened, false, true},
			{"wait", Unchanged, true, true},
			{"x", Unchanged, false, true},
			{"wait", Unchanged, true, true},
			{"ok", Closed, true, false},
		}},
	}
	const probe = 20 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.after, probe)
			for i, s := range tc.steps {
				var got Transition
				switch s.do {
				case "x":
					got = b.Record(fail)
				case "ok":
					got = b.Record(nil)
				case "wait":
					time.Sleep(probe + 5*time.Millisecond)
				}
				if got != s.trans {
					t.Fatalf("step %d (%s): transition %v, want %v", i, s.do, got, s.trans)
				}
				if o := b.Open(); o != s.open {
					t.Fatalf("step %d (%s): Open() = %v, want %v", i, s.do, o, s.open)
				}
				if a := b.Allow(); a != s.allow {
					t.Fatalf("step %d (%s): Allow() = %v, want %v", i, s.do, a, s.allow)
				}
				if s.open && s.allow && b.Allow() {
					t.Fatalf("step %d (%s): a second probe was allowed in one interval", i, s.do)
				}
			}
		})
	}
}

// TestBreakerOneProbeUnderContention: when a probe falls due, exactly
// one of many concurrent callers gets it. Run under -race in CI.
func TestBreakerOneProbeUnderContention(t *testing.T) {
	const probe = 10 * time.Millisecond
	b := New(1, probe)
	if b.Record(errors.New("boom")) != Opened {
		t.Fatal("breaker did not open")
	}
	time.Sleep(probe + 5*time.Millisecond)
	var allowed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				allowed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := allowed.Load(); n != 1 {
		t.Fatalf("%d callers got the probe, want 1", n)
	}
}
