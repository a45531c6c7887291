// Anti-entropy sweep (DESIGN.md §15). Per table it pins a common frontier
// at or below every participant's applied version, compares Merkle roots
// with the class master's (the ground truth) and drills down to the
// diverging pages. A diverged peer is quarantined out of read placement,
// repaired with the master's pages and released once a re-check shows it
// equal to the master.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
)

// scrubFrontierRetries bounds how often a table check restarts after a
// racing master commit invalidates the pinned frontier
// (page.ErrVersionConflict) before the table is skipped until the next
// sweep.
const scrubFrontierRetries = 3

// ScrubMismatch is one diverged page set on one node, pinned at the frontier
// version the mismatch was observed at.
type ScrubMismatch struct {
	heap.PageSet
	Version uint64
}

// ScrubReport summarizes one sweep.
type ScrubReport struct {
	TablesChecked int // (table) digest comparisons completed
	Conflicts     int // frontier retries forced by racing commits
	Skipped       int // table checks abandoned (retries exhausted / no master / peer errors)
	Diverged      map[string][]ScrubMismatch
	Repaired      []string // nodes repaired and verified converged
	Failed        []string // nodes left quarantined after a failed repair

	// matched lists, per node, the tables whose root equalled the
	// master's at the pinned frontier.
	matched map[string][]int
}

func newScrubReport() ScrubReport {
	return ScrubReport{Diverged: make(map[string][]ScrubMismatch), matched: make(map[string][]int)}
}

type scrubMetrics struct {
	sweeps         *obs.Counter
	skipped        *obs.Counter
	divergences    *obs.Counter
	repairs        *obs.Counter
	repairFailures *obs.Counter
	sweepUS        *obs.Histogram
}

// newScrubMetrics resolves the sweep's metrics on reg (nil-safe handles
// when reg is nil).
func newScrubMetrics(reg *obs.Registry) scrubMetrics {
	return scrubMetrics{
		sweeps:         reg.Counter(obs.ScrubSweeps),
		skipped:        reg.Counter(obs.ScrubSkipped),
		divergences:    reg.Counter(obs.ScrubDivergences),
		repairs:        reg.Counter(obs.ScrubRepairs),
		repairFailures: reg.Counter(obs.ScrubRepairFailures),
		sweepUS:        reg.Histogram(obs.ScrubSweepUS),
	}
}

// Sweep runs one anti-entropy pass: digest every table (cfg.ScrubTables,
// or all) on every member placed for reads against its class master, release
// nodes whose diverged tables now match, and quarantine, repair and verify
// new divergences. A peer that cannot be digested is skipped: its health is
// the detector's. Sweeps are serialized.
func (p *Plane) Sweep() ScrubReport {
	p.scrubMu.Lock()
	defer p.scrubMu.Unlock()
	start := time.Now()
	rep := newScrubReport()

	tables := p.cfg.ScrubTables
	if len(tables) == 0 {
		tables = make([]int, len(p.Scheduler().Latest()))
		for i := range tables {
			tables[i] = i
		}
	}
	peers := p.peers(func(m *member) bool { _, placed := p.duty(m); return placed })
	for _, t := range tables {
		p.checkTable(t, peers, &rep)
	}

	// A node an earlier sweep left quarantined (its repair or verification
	// failed) is released once its diverged tables match again.
	for node, ts := range rep.matched {
		p.changeMember(node, func(m *member) {
			for _, t := range ts {
				delete(m.diverged, t)
			}
		})
	}

	nodes := make([]string, 0, len(rep.Diverged))
	for node := range rep.Diverged {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		mms := rep.Diverged[node]
		p.scrubMet.divergences.Add(int64(len(mms)))
		p.changeMember(node, func(m *member) {
			if m.diverged == nil {
				m.diverged = make(map[int]bool, len(mms))
			}
			for _, mm := range mms {
				m.diverged[mm.Table] = true
			}
		})
		detail := fmt.Sprintf("tables=%d pages=%d", len(mms), totalPages(mms))
		p.cfg.Flight.Trigger(flight.CauseDivergence, node, detail)
		p.emit(Event{Kind: EventScrubDiverged, Node: node, Detail: detail})

		repairStart := time.Now()
		peer := peers[slices.IndexFunc(peers, func(n replica.Peer) bool { return n.ID() == node })]
		pages, err := p.repairAndVerify(peer, mms)
		took := time.Since(repairStart)
		if err == nil {
			p.changeMember(node, func(m *member) {
				for _, mm := range mms {
					delete(m.diverged, mm.Table)
				}
			})
			p.scrubMet.repairs.Inc()
			rep.Repaired = append(rep.Repaired, node)
		} else {
			// The node stays quarantined until a later sweep shows its
			// tables equal to the master's again.
			p.scrubMet.repairFailures.Inc()
			rep.Failed = append(rep.Failed, node)
		}
		p.emit(Event{
			Kind:     EventScrubRepaired,
			Node:     node,
			Detail:   fmt.Sprintf("pages=%d ok=%t", pages, err == nil),
			Duration: took,
		})
	}

	p.scrubMet.sweeps.Inc()
	p.scrubMet.skipped.Add(int64(rep.Skipped))
	p.scrubMet.sweepUS.Observe(time.Since(start).Microseconds())
	return rep
}

// checkTable digests table t across the audit peers, recording matching
// tables and diverging page sets into rep. A racing master commit
// invalidates the pinned frontier (page.ErrVersionConflict); the check
// restarts with a fresher frontier up to scrubFrontierRetries times, then
// counts the table skipped.
func (p *Plane) checkTable(t int, peers []replica.Peer, rep *ScrubReport) {
	master := p.masterOf(t)
	if master == nil {
		rep.Skipped++
		return
	}
	audit := slices.DeleteFunc(slices.Clone(peers), func(n replica.Peer) bool { return n.ID() == master.ID() })
	if len(audit) == 0 {
		return
	}
	for attempt := 0; ; attempt++ {
		err := compareOnce(t, master, audit, rep)
		if err == nil {
			rep.TablesChecked++
			return
		}
		if errors.Is(err, page.ErrVersionConflict) {
			rep.Conflicts++
		}
		if attempt >= scrubFrontierRetries {
			rep.Skipped++
			return
		}
	}
}

// compareOnce pins one frontier and compares roots; on mismatch it drills
// down to the page set. It fails with page.ErrVersionConflict when any
// digest lost the race to a newer commit (the caller retries with a fresh
// frontier), having recorded nothing for that attempt.
func compareOnce(t int, master replica.Peer, audit []replica.Peer, rep *ScrubReport) error {
	// The frontier must sit at or below every participant's applied
	// version or the pinned-version scan has nothing to read.
	frontier, live, err := scrubFrontier(t, master, audit)
	if err != nil {
		return err
	}
	mRoot, err := master.Digest(t, frontier, false)
	if err != nil {
		return err
	}
	var matched []string
	diverged := make(map[string]ScrubMismatch)
	for _, peer := range live {
		pRoot, err := peer.Digest(t, frontier, false)
		if errors.Is(err, page.ErrVersionConflict) {
			return err
		}
		if err != nil {
			continue // peer unreachable/joining: its health is the detector's job
		}
		if pRoot.Root == mRoot.Root {
			matched = append(matched, peer.ID())
			continue
		}
		// Drill down: re-fetch both sides with leaves and diff.
		mFull, err := master.Digest(t, frontier, true)
		if err != nil {
			return err
		}
		pFull, err := peer.Digest(t, frontier, true)
		if errors.Is(err, page.ErrVersionConflict) {
			return err
		}
		if err != nil {
			continue
		}
		diff := scrub.DiffPages(mFull, pFull)
		if len(diff) == 0 {
			continue // roots differed but leaves agree: racing state, recheck next sweep
		}
		diverged[peer.ID()] = ScrubMismatch{PageSet: heap.PageSet{Table: t, Pages: diff}, Version: frontier}
	}
	for _, id := range matched {
		rep.matched[id] = append(rep.matched[id], t)
	}
	for id, mm := range diverged {
		rep.Diverged[id] = append(rep.Diverged[id], mm)
	}
	return nil
}

// scrubFrontier picks the highest version every participant has applied for
// table t. Peers whose version cannot be fetched are dropped from this
// check rather than stalling the frontier at zero.
func scrubFrontier(t int, master replica.Peer, audit []replica.Peer) (uint64, []replica.Peer, error) {
	mv, err := master.MaxVersions()
	if err != nil {
		return 0, nil, fmt.Errorf("scrub: master %s versions: %w", master.ID(), err)
	}
	frontier := mv.Get(t)
	live := make([]replica.Peer, 0, len(audit))
	for _, peer := range audit {
		pv, err := peer.MaxVersions()
		if err != nil {
			continue
		}
		if v := pv.Get(t); v < frontier {
			frontier = v
		}
		live = append(live, peer)
	}
	return frontier, live, nil
}

// repairAndVerify ships the class masters' current images of every
// diverged page to the node, then proves convergence by re-running the
// per-table compare on the node alone at a fresh frontier. The
// StartJoin/FinishJoin bracket buffers write-sets arriving mid-repair and
// drains them through the versioned apply path afterwards.
func (p *Plane) repairAndVerify(peer replica.Peer, mms []ScrubMismatch) (pages int, err error) {
	if err := peer.StartJoin(); err != nil {
		return 0, fmt.Errorf("scrub repair %s: start join: %w", peer.ID(), err)
	}
	for _, mm := range mms {
		master := p.masterOf(mm.Table)
		if master == nil {
			err = fmt.Errorf("scrub repair %s: table %d has no master", peer.ID(), mm.Table)
			break
		}
		n, serr := shipPages(peer, master, []heap.PageSet{mm.PageSet})
		pages += n
		if serr != nil {
			err = fmt.Errorf("scrub repair %s: %w", peer.ID(), serr)
			break
		}
	}
	// FinishJoin runs even when shipping failed halfway: it drains the
	// buffered write-sets so the node keeps converging instead of
	// buffering forever.
	if ferr := peer.FinishJoin(); ferr != nil && err == nil {
		err = fmt.Errorf("scrub repair %s: finish join: %w", peer.ID(), ferr)
	}
	if err != nil {
		return pages, err
	}
	for _, mm := range mms {
		rep := newScrubReport()
		p.checkTable(mm.Table, []replica.Peer{peer}, &rep)
		if !slices.Contains(rep.matched[peer.ID()], mm.Table) {
			return pages, fmt.Errorf("scrub verify: %s table %d not shown equal to its master", peer.ID(), mm.Table)
		}
	}
	return pages, nil
}

// masterOf returns the master the member record names for table t's
// conflict class (class 0 for a table outside every configured class).
func (p *Plane) masterOf(t int) replica.Peer {
	sched := p.Scheduler()
	ci := 0
	for c := range sched.NumClasses() {
		if slices.Contains(sched.ClassTables(c), t) {
			ci = c
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.masterLocked(ci)
}

func totalPages(mms []ScrubMismatch) int {
	n := 0
	for _, mm := range mms {
		n += len(mm.Pages)
	}
	return n
}
