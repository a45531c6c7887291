package scheduler

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/replica"
)

// TestCoDelHysteresis pins the shed law's entry and exit conditions: shed
// mode engages only after sojourn stays at or above target for a full
// interval; while shedding, observations between target/2 and target do NOT
// un-shed (the hysteresis band); one observation below target/2 — or the
// queue draining empty — exits.
func TestCoDelHysteresis(t *testing.T) {
	target := 5 * time.Millisecond
	interval := 100 * time.Millisecond
	c := codel{Target: target, Interval: interval}
	t0 := time.Unix(0, 0)

	// A spike shorter than the interval never sheds.
	if c.Observe(10*target, t0) {
		t.Fatal("shed on first above-target observation")
	}
	if c.Observe(10*target, t0.Add(interval/2)) {
		t.Fatal("shed before a full interval above target")
	}
	// One below-target observation resets the run.
	if c.Observe(target/4, t0.Add(interval/2+time.Millisecond)) {
		t.Fatal("shed on a below-target observation")
	}
	// A sustained above-target run for a full interval engages shed mode.
	base := t0.Add(time.Second)
	c.Observe(2*target, base)
	if !c.Observe(2*target, base.Add(interval)) {
		t.Fatal("no shed after a full interval above target")
	}

	// Hysteresis: sojourns in [target/2, target) keep shedding.
	if !c.Observe(target*3/4, base.Add(interval+time.Millisecond)) {
		t.Fatal("left shed mode inside the hysteresis band")
	}
	// Below target/2 exits.
	if c.Observe(target/4, base.Add(interval+2*time.Millisecond)) {
		t.Fatal("still shedding after a below-target/2 observation")
	}

	// Re-enter, then exit via the queue draining empty.
	c.Observe(2*target, base.Add(2*time.Second))
	if !c.Observe(2*target, base.Add(2*time.Second+interval)) {
		t.Fatal("no shed on second sustained run")
	}
	c.OnEmpty()
	if c.Shedding() {
		t.Fatal("still shedding after the queue drained empty")
	}
}

// newTestAdmitter builds an Admitter outside a Scheduler, with one update
// class plus the implicit read class.
func newTestAdmitter(opts AdmissionOptions) (*Admitter, *obs.Registry) {
	reg := obs.New()
	return newAdmitter(opts, 1, 42, reg, reg.Timeline(), nil), reg
}

// TestAdmitterSlotsAndQueue covers the three admission outcomes: fast-path
// admit while slots are free, queue + grant on release, and fast reject
// with a jittered retry-after once the bounded queue is full.
func TestAdmitterSlotsAndQueue(t *testing.T) {
	a, reg := newTestAdmitter(AdmissionOptions{Slots: 2, QueueCap: 1, TargetSojourn: time.Hour})
	rel1, err := a.Admit(0, time.Time{})
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	rel2, err := a.Admit(0, time.Time{})
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}

	// Slots full: the third arrival queues; grant it by releasing a slot.
	var wg sync.WaitGroup
	wg.Add(1)
	granted := make(chan struct{})
	go func() {
		defer wg.Done()
		rel3, err := a.Admit(0, time.Time{})
		if err != nil {
			t.Errorf("queued admit: %v", err)
			return
		}
		close(granted)
		rel3()
	}()
	// Wait until the waiter is parked, then overflow the queue.
	deadline := time.Now().Add(2 * time.Second)
	for a.Pressure() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Admit(0, time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full admit: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	_, err = a.Admit(0, time.Time{})
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload error carries no retry-after hint: %v", err)
	}

	rel1()
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("release never granted the queued waiter")
	}
	wg.Wait()
	rel2()
	// Double release must be a no-op (sync.Once), not an occupancy leak.
	rel1()
	rel1()
	if p := a.Pressure(); p != 0 {
		t.Fatalf("pressure after all releases = %v, want 0", p)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.SchedAdmitShed]; got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	if got := snap.Counters[obs.SchedAdmitAdmitted]; got != 3 {
		t.Fatalf("admitted counter = %d, want 3", got)
	}
}

// TestAdmitterDeadlineAbandon: a waiter still queued when its deadline
// fires is abandoned with ErrDeadlineExpired and counted, and its queue
// slot is reclaimed.
func TestAdmitterDeadlineAbandon(t *testing.T) {
	a, reg := newTestAdmitter(AdmissionOptions{Slots: 1, QueueCap: 4, TargetSojourn: time.Hour})
	rel, err := a.Admit(0, time.Time{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	start := time.Now()
	_, err = a.Admit(0, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, replica.ErrDeadlineExpired) {
		t.Fatalf("queued admit past deadline: err = %v, want ErrDeadlineExpired", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("deadline abandon must not read as an overload reject")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("abandon took %v, want ~50ms", elapsed)
	}
	if got := reg.Snapshot().Counters[obs.SchedDeadlineAbandoned]; got != 1 {
		t.Fatalf("abandoned counter = %d, want 1", got)
	}
	rel()
	if p := a.Pressure(); p != 0 {
		t.Fatalf("pressure after abandon+release = %v, want 0 (queue slot leaked)", p)
	}
}

// TestAdmitterShedModeFastReject: once sustained sojourn engages shed mode,
// arrivals are rejected in the fast path without queueing, and draining the
// queues recovers.
func TestAdmitterShedModeFastReject(t *testing.T) {
	a, _ := newTestAdmitter(AdmissionOptions{
		Slots: 1, QueueCap: 8,
		TargetSojourn: time.Millisecond, Interval: 10 * time.Millisecond,
	})
	rel, err := a.Admit(0, time.Time{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	// Park waiters long enough that their sojourn exceeds target for a full
	// interval, then release slots one by one: each grant feeds the CoDel
	// law a large sojourn and shed mode engages.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.Admit(0, time.Time{})
			if err == nil {
				time.Sleep(20 * time.Millisecond)
				r()
			}
		}()
	}
	// Occupancy is 1 inflight + 3 queued out of slots+cap = 9.
	deadline := time.Now().Add(2 * time.Second)
	for a.Pressure() < 4.0/9.0 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond) // let queued sojourn exceed target x interval
	rel()                             // grant head: sojourn ~25ms >> target for > interval
	wg.Wait()                         // waiters drain; the last release sees empty queues

	// After the drain, OnEmpty has ended shed mode: a fresh arrival admits.
	deadline = time.Now().Add(2 * time.Second)
	for {
		r, err := a.Admit(0, time.Time{})
		if err == nil {
			r()
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("admit after drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("shed mode never recovered after the queue drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunDeadlineExpired: a TxnSpec whose deadline already passed fails
// with ErrDeadlineExpired before any replica work, and the abandon counter
// moves.
func TestRunDeadlineExpired(t *testing.T) {
	reg := obs.New()
	s := newSched(t, Options{Obs: reg})
	m := &fakePeer{id: "m"}
	s.SetMaster(0, m)
	err := s.Run(TxnSpec{Tables: []string{"a"}, Deadline: time.Now().Add(-time.Second)}, func(tx *Txn) error {
		t.Fatal("fn ran despite an expired deadline")
		return nil
	})
	if !errors.Is(err, replica.ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", err)
	}
	if m.begins.Load() != 0 {
		t.Fatal("expired transaction still reached the master")
	}
	if got := reg.Snapshot().Counters[obs.SchedDeadlineAbandoned]; got < 1 {
		t.Fatalf("abandoned counter = %d, want >= 1", got)
	}
}

// TestSchedulerAdmissionIntegration: a scheduler built with admission
// options gates begin, rejects with ErrOverloaded when saturated, and
// releases occupancy on commit so later transactions admit again.
func TestSchedulerAdmissionIntegration(t *testing.T) {
	s := newSched(t, Options{Admission: AdmissionOptions{Slots: 1, QueueCap: 0, TargetSojourn: time.Hour}})
	m := &fakePeer{id: "m"}
	s.SetMaster(0, m)

	// QueueCap 0 defaults to 4x slots; saturate the slot and the queue with
	// holders that never finish, then expect a fast reject.
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error {
				<-block
				return nil
			})
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.AdmissionPressure() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("admission never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	err := s.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated run: err = %v, want ErrOverloaded", err)
	}
	close(block)
	wg.Wait()
	if err := s.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error { return nil }); err != nil {
		t.Fatalf("run after drain: %v", err)
	}
	if p := s.AdmissionPressure(); p != 0 {
		t.Fatalf("pressure after drain = %v, want 0 (release leaked)", p)
	}
}
