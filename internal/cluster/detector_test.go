package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dmv/internal/replica"
)

// TestDetectorStateMachine drives nodeHealth as the pure state machine it
// is: a sequence of probe outcomes in, a sequence of transitions out, no
// clock, no goroutines, no plane.
func TestDetectorStateMachine(t *testing.T) {
	const suspectAfter, deadAfter = 2, 4
	var (
		timeout = fmt.Errorf("%w: probe", replica.ErrPeerTimeout)
		down    = fmt.Errorf("%w: n", replica.ErrNodeDown)
		other   = errors.New("connection reset")
	)
	type step struct {
		rtt  time.Duration
		err  error
		want healthAction
	}
	ok := func(want healthAction) step { return step{rtt: 200 * time.Microsecond, want: want} }
	// slow(i, ...) is the i-th of a run of answered-but-late probes. Each is
	// 4x the last because the band adapts: a slow sample widens it, so only
	// a still slower one counts as the next soft miss.
	slow := func(i int, want healthAction) step {
		return step{rtt: 50 * time.Millisecond << (2 * i), want: want}
	}
	miss := func(want healthAction) step { return step{err: timeout, want: want} }
	warm := func() []step { // enough normal probes to arm the RTT band
		var s []step
		for i := 0; i < rttWarmup; i++ {
			s = append(s, ok(actNone))
		}
		return s
	}
	cat := func(parts ...[]step) []step {
		var s []step
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	many := func(n int, st step) []step {
		s := make([]step, n)
		for i := range s {
			s[i] = st
		}
		return s
	}

	cases := []struct {
		name      string
		steps     []step
		wantState string
	}{
		{"healthy stays healthy", many(20, ok(actNone)), ""},
		{"misses walk the ladder to dead",
			[]step{miss(actNone), miss(actSuspect), miss(actNone), miss(actDead)}, healthSuspect},
		{"one miss then recovery resets the count",
			[]step{miss(actNone), ok(actNone), miss(actNone), ok(actNone)}, ""},
		{"suspect recovers as a false suspicion",
			[]step{miss(actNone), miss(actSuspect), ok(actClear), ok(actNone)}, ""},
		{"cleared suspect starts the ladder over",
			[]step{miss(actNone), miss(actSuspect), ok(actClear), miss(actNone), miss(actSuspect)}, healthSuspect},
		{"hard error skips the ladder",
			[]step{ok(actNone), {err: down, want: actDead}}, ""},
		{"any non-timeout error is a hard error",
			[]step{{err: other, want: actDead}}, ""},
		{"slow RTT before warm-up is not a miss",
			cat(many(rttWarmup-2, ok(actNone)), []step{slow(0, actNone), slow(1, actNone)}), ""},
		{"soft misses raise suspicion after warm-up",
			cat(warm(), []step{slow(0, actNone), slow(1, actSuspect)}), healthSuspect},
		{"soft and hard misses share one count",
			cat(warm(), []step{slow(0, actNone), miss(actSuspect)}), healthSuspect},
		// Soft misses count far past deadAfter without ever killing: only
		// probe deadlines and hard errors do.
		{"RTT slowness alone never reaches dead", func() []step {
			s := cat(warm(), []step{slow(0, actNone), slow(1, actSuspect)})
			for i := 2; i < 4*deadAfter; i++ {
				s = append(s, slow(i, actNone))
			}
			return s
		}(), healthSuspect},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h nodeHealth
			for i, st := range tc.steps {
				if got := h.observe(st.rtt, st.err, suspectAfter, deadAfter); got != st.want {
					t.Fatalf("step %d (rtt %v, err %v): action %d, want %d (state %q, misses %d)",
						i, st.rtt, st.err, got, st.want, h.state, h.misses)
				}
			}
			if h.state != tc.wantState {
				t.Fatalf("final state %q, want %q", h.state, tc.wantState)
			}
		})
	}

	// Once the plane has confirmed a death the machine is inert: late probe
	// results for the node change nothing.
	dead := nodeHealth{state: healthDead}
	for _, st := range []step{ok(actNone), miss(actNone), {err: down}} {
		if got := dead.observe(st.rtt, st.err, suspectAfter, deadAfter); got != actNone {
			t.Fatalf("dead node produced action %d", got)
		}
	}
}
