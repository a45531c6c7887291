// Anti-entropy scrub loop (DESIGN.md §15): the plane periodically runs a
// scheduler-driven digest sweep over every replica and turns the scrubber's
// callbacks into timeline events plus topology updates fanned out to every
// standby scheduler (the scrubber itself only touches the scheduler it was
// built from).
package cluster

import (
	"fmt"
	"time"

	"dmv/internal/scheduler"
)

func (p *Plane) scrubLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.ScrubInterval)
	defer ticker.Stop()
	// One scrubber per primary scheduler, cached across ticks: the
	// scrubber's own mutex is what serializes sweeps, so rebuilding it
	// every tick would let a slow repair overlap the next sweep and
	// double-report the same divergence.
	var sc *scheduler.Scrubber
	var builtFor *scheduler.Scheduler
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			if cur := p.Scheduler(); sc == nil || cur != builtFor {
				sc = p.newScrubber(cur)
				builtFor = cur
			}
			sc.Sweep()
		}
	}
}

// newScrubber wires a scrubber over the given scheduler, translating its
// callbacks into timeline events and standby-scheduler topology updates.
func (p *Plane) newScrubber(sched *scheduler.Scheduler) *scheduler.Scrubber {
	return sched.NewScrubber(scheduler.ScrubOptions{
		Tables:        p.cfg.ScrubTables,
		IncludeSpares: p.cfg.SpareMode == SpareHot,
		OnDiverged: func(node string, mms []scheduler.ScrubMismatch) {
			pages := 0
			for _, mm := range mms {
				pages += len(mm.Pages)
			}
			p.emit(Event{
				Kind:   EventScrubDiverged,
				Node:   node,
				Detail: fmt.Sprintf("tables=%d pages=%d", len(mms), pages),
			})
			// The scrubber quarantined its own scheduler; cover the
			// standbys too so a scheduler fail-over cannot resurrect the
			// diverged node into read placement mid-repair.
			p.eachSched(func(s *scheduler.Scheduler) { s.SetQuarantined(node, true) })
		},
		OnRepaired: func(node string, pages int, took time.Duration, ok bool) {
			detail := fmt.Sprintf("pages=%d ok=%t", pages, ok)
			p.emit(Event{Kind: EventScrubRepaired, Node: node, Detail: detail, Duration: took})
			if ok {
				p.eachSched(func(s *scheduler.Scheduler) { s.SetQuarantined(node, false) })
			}
		},
	})
}
