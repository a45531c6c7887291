// Anti-entropy sweep (DESIGN.md §15). The plane drives it because it alone
// knows the topology (which node masters each conflict class, which slaves
// and spares serve reads) and owns read quarantine. Per table it pins a
// common frontier at or below every participant's applied version, fetches
// Merkle roots over the deadline-bounded Digest RPC, and on a root mismatch
// drills down to the diverging page set. The class master is the digest
// ground truth (it executed every update locally; a master that corrupts its
// own state is outside this defense, see the DESIGN.md caveat), so a peer
// whose root differs is quarantined out of read placement, repaired with the
// master's current pages through the plane's one page-shipping step, and
// released once a re-check shows it equal to the master.
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
	"dmv/internal/scheduler"
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
	tablesChecked  *obs.Counter
	conflicts      *obs.Counter
	skipped        *obs.Counter
	divergences    *obs.Counter
	repairs        *obs.Counter
	repairFailures *obs.Counter
	repairPages    *obs.Counter
	sweepUS        *obs.Histogram
	repairUS       *obs.Histogram
}

// newScrubMetrics resolves the sweep's metrics on reg (nil-safe handles
// when reg is nil).
func newScrubMetrics(reg *obs.Registry) scrubMetrics {
	return scrubMetrics{
		sweeps:         reg.Counter(obs.ScrubSweeps),
		tablesChecked:  reg.Counter(obs.ScrubTablesChecked),
		conflicts:      reg.Counter(obs.ScrubConflicts),
		skipped:        reg.Counter(obs.ScrubSkipped),
		divergences:    reg.Counter(obs.ScrubDivergences),
		repairs:        reg.Counter(obs.ScrubRepairs),
		repairFailures: reg.Counter(obs.ScrubRepairFailures),
		repairPages:    reg.Counter(obs.ScrubRepairPages),
		sweepUS:        reg.Histogram(obs.ScrubSweepUS),
		repairUS:       reg.Histogram(obs.ScrubRepairUS),
	}
}

func (p *Plane) scrubLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.Sweep()
		}
	}
}

// Sweep runs one full anti-entropy pass over the primary scheduler's
// topology: digest every table (cfg.ScrubTables, or all) on every slave,
// and on hot spares, against its class master; release nodes whose
// diverged tables now match; quarantine, repair and verify new
// divergences. It never fails a node: a peer that cannot be digested
// (down, joining, deadline) is skipped, as its health is the detector's.
// Sweeps are serialized, so a slow repair never overlaps the next tick.
func (p *Plane) Sweep() ScrubReport {
	p.scrubMu.Lock()
	defer p.scrubMu.Unlock()
	start := time.Now()
	sched := p.Scheduler()
	rep := newScrubReport()

	tables := p.cfg.ScrubTables
	if len(tables) == 0 {
		tables = make([]int, len(sched.Latest()))
		for i := range tables {
			tables[i] = i
		}
	}
	peers := sched.SlaveList()
	if p.cfg.SpareMode == SpareHot {
		peers = append(peers, sched.SpareList()...)
	}
	for _, t := range tables {
		checkTable(sched, t, peers, &rep)
	}

	// A node an earlier sweep left quarantined (its repair or verification
	// failed) is released once its diverged tables match again.
	for node, ts := range rep.matched {
		p.quarantine(node, func(m *member) {
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
		p.quarantine(node, func(m *member) {
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
		pages, err := repairAndVerify(sched, peerByID(peers, node), mms)
		took := time.Since(repairStart)
		p.scrubMet.repairPages.Add(int64(pages))
		p.scrubMet.repairUS.Observe(took.Microseconds())
		if err == nil {
			p.quarantine(node, func(m *member) {
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
	p.scrubMet.tablesChecked.Add(int64(rep.TablesChecked))
	p.scrubMet.conflicts.Add(int64(rep.Conflicts))
	p.scrubMet.skipped.Add(int64(rep.Skipped))
	p.scrubMet.sweepUS.Observe(time.Since(start).Microseconds())
	return rep
}

// checkTable digests table t across the audit peers, recording matching
// tables and diverging page sets into rep. A racing master commit
// invalidates the pinned frontier (page.ErrVersionConflict); the check
// restarts with a fresher frontier up to scrubFrontierRetries times, then
// counts the table skipped.
func checkTable(sched *scheduler.Scheduler, t int, peers []replica.Peer, rep *ScrubReport) {
	master := masterOf(sched, t)
	if master == nil {
		rep.Skipped++
		return
	}
	audit := make([]replica.Peer, 0, len(peers))
	for _, peer := range peers {
		if peer.ID() != master.ID() {
			audit = append(audit, peer)
		}
	}
	if len(audit) == 0 {
		return
	}
	for attempt := 0; ; attempt++ {
		conflict, err := compareOnce(t, master, audit, rep)
		if err == nil && !conflict {
			rep.TablesChecked++
			return
		}
		if conflict {
			rep.Conflicts++
		}
		if attempt >= scrubFrontierRetries {
			rep.Skipped++
			return
		}
	}
}

// compareOnce pins one frontier and compares roots; on mismatch it drills
// down to the page set. It returns conflict=true when any digest lost the
// race to a newer commit (the caller retries with a fresh frontier), having
// recorded nothing for that attempt.
func compareOnce(t int, master replica.Peer, audit []replica.Peer, rep *ScrubReport) (conflict bool, err error) {
	// The frontier must sit at or below every participant's applied
	// version or the pinned-version scan has nothing to read.
	frontier, live, err := scrubFrontier(t, master, audit)
	if err != nil {
		return false, err
	}
	mRoot, err := master.Digest(t, frontier, false)
	if errors.Is(err, page.ErrVersionConflict) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	var matched []string
	diverged := make(map[string]ScrubMismatch)
	for _, peer := range live {
		pRoot, err := peer.Digest(t, frontier, false)
		if errors.Is(err, page.ErrVersionConflict) {
			return true, nil
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
		if errors.Is(err, page.ErrVersionConflict) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		pFull, err := peer.Digest(t, frontier, true)
		if errors.Is(err, page.ErrVersionConflict) {
			return true, nil
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
	return false, nil
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
// diverged page to the node (an image at the page's own version overwrites
// it: divergence is "same version, different bytes"), then proves
// convergence by re-running the per-table compare on the node alone at a
// fresh frontier. The StartJoin/FinishJoin bracket makes the install safe
// under live replication: write-sets arriving mid-repair buffer on the node
// and drain through the versioned apply path afterwards, so nothing acked
// is lost and nothing is applied twice.
func repairAndVerify(sched *scheduler.Scheduler, peer replica.Peer, mms []ScrubMismatch) (pages int, err error) {
	if err := peer.StartJoin(); err != nil {
		return 0, fmt.Errorf("scrub repair %s: start join: %w", peer.ID(), err)
	}
	for _, mm := range mms {
		master := masterOf(sched, mm.Table)
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
		checkTable(sched, mm.Table, []replica.Peer{peer}, &rep)
		if !slices.Contains(rep.matched[peer.ID()], mm.Table) {
			return pages, fmt.Errorf("scrub verify: %s table %d not shown equal to its master", peer.ID(), mm.Table)
		}
	}
	return pages, nil
}

// masterOf returns the master of table t's conflict class (class 0 for a
// table outside every configured class).
func masterOf(sched *scheduler.Scheduler, t int) replica.Peer {
	for ci := 0; ci < sched.NumClasses(); ci++ {
		if slices.Contains(sched.ClassTables(ci), t) {
			return sched.Master(ci)
		}
	}
	return sched.Master(0)
}

func peerByID(peers []replica.Peer, id string) replica.Peer {
	for _, peer := range peers {
		if peer.ID() == id {
			return peer
		}
	}
	return nil
}

func totalPages(mms []ScrubMismatch) int {
	n := 0
	for _, mm := range mms {
		n += len(mm.Pages)
	}
	return n
}
