package cluster

import (
	"errors"
	"sync"
)

// ErrClosed reports an action, a Restart say, offered to a closed plane.
var ErrClosed = errors.New("cluster: plane closed")

// actionQueue is the plane's one FIFO of side effects (DESIGN.md §10,
// "Action order"): reports, verdicts, fail-overs, spare activations and
// restarts, run one at a time by the worker (Plane.work) in the order they
// were decided. push never waits, so mu is a leaf: reports arrive from under
// scheduler and replica locks and from a fail-over holding the commit fence.
type actionQueue struct {
	mu     sync.Mutex
	queue  []action // guarded by mu
	closed bool     // guarded by mu
	// reporting holds the ids with a failure report queued or running.
	reporting map[string]bool // guarded by mu
	wake      chan struct{}
}

// action is one queued side effect. done, if set, receives run's result or
// ErrClosed; report names the member a failure report is about.
type action struct {
	run    func() error
	done   chan error
	report string
}

func (a action) finish(err error) {
	if a.done != nil {
		a.done <- err
	}
}

func (q *actionQueue) push(a action) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		a.finish(ErrClosed)
		return
	case a.report == "":
	case q.reporting[a.report]:
		return
	default:
		q.reporting[a.report] = true
	}
	q.queue = append(q.queue, a)
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop takes the next action, once the one before it has finished.
func (q *actionQueue) pop(prev action) (action, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.reporting, prev.report)
	if q.closed || len(q.queue) == 0 {
		return action{}, false
	}
	a := q.queue[0]
	q.queue = q.queue[1:]
	return a, true
}

// close refuses every later action and fails the queued ones.
func (q *actionQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, a := range q.queue {
		a.finish(ErrClosed)
	}
	q.queue = nil
}

// work is the plane's worker: it runs the queued actions in order until
// Close. No action waits on the queue.
func (p *Plane) work() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.q.wake:
		}
		for a, ok := p.q.pop(action{}); ok; a, ok = p.q.pop(a) {
			a.finish(a.run())
		}
	}
}

// enqueue puts fn on the action queue. It never waits.
func (p *Plane) enqueue(fn func()) {
	p.q.push(action{run: func() error { fn(); return nil }})
}

// do runs fn on the worker, after every action enqueued before it, and
// returns its result, or ErrClosed once the plane is closed.
func (p *Plane) do(fn func() error) error {
	done := make(chan error, 1)
	p.q.push(action{run: fn, done: done})
	return <-done
}
