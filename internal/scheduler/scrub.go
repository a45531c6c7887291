// Anti-entropy scrubber (DESIGN.md §15). The scheduler is the one component
// that already knows the full topology — which node masters each conflict
// class, which slaves and spares serve reads — so it drives the sweep: pin a
// common frontier at or below every node's applied version, fetch per-table
// Merkle roots over the deadline-bounded Digest RPC, and on a root mismatch
// drill down to the diverging page set. The class master is the digest
// ground truth (it executed every update locally; a master that corrupts
// its own state is outside this defense — see the DESIGN.md caveat), so a
// peer whose root differs is quarantined out of read placement, repaired
// with the master's current pages over the changed-page path, and
// reintegrated through the ordinary StartJoin/FinishJoin flow so no acked
// commit is lost while the repair is in flight.
package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
)

// ScrubMismatch is one diverged (table, page set) on one node, pinned at the
// frontier version the mismatch was observed at.
type ScrubMismatch struct {
	Table   int
	Version uint64
	Pages   []page.ID
}

// ScrubOptions configures a Scrubber.
type ScrubOptions struct {
	// Tables restricts the sweep to these table ids; nil sweeps every
	// table the scheduler's version vectors cover.
	Tables []int
	// IncludeSpares audits spare backups too (they apply the same
	// write-set stream and are one promotion away from serving reads).
	IncludeSpares bool
	// FrontierRetries bounds how often a table check restarts after a
	// racing master commit invalidates the pinned frontier
	// (page.ErrVersionConflict). Default 3.
	FrontierRetries int
	// OnDiverged fires after a diverged node is quarantined, before
	// repair. The cluster layer uses it to emit timeline events and fan
	// the quarantine out to standby schedulers.
	OnDiverged func(node string, mismatches []ScrubMismatch)
	// OnRepaired fires after a repair attempt: ok reports whether the
	// re-digest verified convergence (on false the node stays
	// quarantined).
	OnRepaired func(node string, pages int, took time.Duration, ok bool)
}

// ScrubReport summarizes one sweep.
type ScrubReport struct {
	TablesChecked int // (table) digest comparisons completed
	Conflicts     int // frontier retries forced by racing commits
	Skipped       int // table checks abandoned (retries exhausted / no master / peer errors)
	Diverged      map[string][]ScrubMismatch
	Repaired      []string // nodes repaired and verified converged
	Failed        []string // nodes left quarantined after a failed repair
}

// Scrubber drives anti-entropy sweeps over the scheduler's replica sets.
// Construct with NewScrubber; Sweep is safe to call from a ticker goroutine.
type Scrubber struct {
	s    *Scheduler
	opts ScrubOptions
	met  scrubMetrics

	mu sync.Mutex // serializes sweeps; a slow repair must not overlap the next tick
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

// NewScrubber builds a scrubber over the scheduler's topology. Metrics land
// in the scheduler's registry (or a private one when the scheduler was built
// without Obs, matching New's behavior).
func (s *Scheduler) NewScrubber(opts ScrubOptions) *Scrubber {
	if opts.FrontierRetries <= 0 {
		opts.FrontierRetries = 3
	}
	reg := s.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	return &Scrubber{
		s:    s,
		opts: opts,
		met: scrubMetrics{
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
		},
	}
}

// classOfTableID maps a table id to its conflict class (class 0 for tables
// outside every configured class, matching classFor's fallback). classes is
// immutable after New, so no lock is needed.
func (s *Scheduler) classOfTableID(t int) int {
	for ci, cs := range s.classes {
		for _, id := range cs.tableIDs {
			if id == t {
				return ci
			}
		}
	}
	return 0
}

// auditPeers returns the replicas whose state the sweep cross-checks
// against class masters: active slaves plus, optionally, spares.
func (sc *Scrubber) auditPeers() []replica.Peer {
	peers := sc.s.SlaveList()
	if sc.opts.IncludeSpares {
		peers = append(peers, sc.s.SpareList()...)
	}
	return peers
}

// Sweep runs one full anti-entropy pass: digest every table on every audit
// peer against its class master, quarantine and repair divergences, and
// verify convergence before lifting the quarantine. It never fails a node —
// a peer that cannot be digested (down, joining, deadline) is simply
// skipped; the failure detector owns its health.
func (sc *Scrubber) Sweep() ScrubReport {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	start := time.Now()
	rep := ScrubReport{Diverged: make(map[string][]ScrubMismatch)}

	tables := sc.opts.Tables
	if len(tables) == 0 {
		n := len(sc.s.Latest())
		tables = make([]int, n)
		for i := range tables {
			tables[i] = i
		}
	}
	peers := sc.auditPeers()
	byID := make(map[string]replica.Peer, len(peers))
	for _, p := range peers {
		byID[p.ID()] = p
	}

	for _, t := range tables {
		sc.checkTable(t, peers, &rep)
	}

	for node, mms := range rep.Diverged {
		sc.met.divergences.Add(int64(len(mms)))
		sc.s.SetQuarantined(node, true)
		detail := fmt.Sprintf("tables=%d pages=%d", len(mms), totalPages(mms))
		sc.s.flight.Trigger(flight.CauseDivergence, node, detail)
		if sc.opts.OnDiverged != nil {
			sc.opts.OnDiverged(node, mms)
		}
		peer := byID[node]
		if peer == nil {
			rep.Failed = append(rep.Failed, node)
			sc.met.repairFailures.Inc()
			continue
		}
		repairStart := time.Now()
		pages, err := sc.repair(peer, mms)
		if err == nil {
			// The quarantine lifts only on proof: re-digest every affected
			// table at a fresh frontier and require a root match.
			affected := make([]int, 0, len(mms))
			for _, mm := range mms {
				affected = append(affected, mm.Table)
			}
			err = sc.VerifyConverged(peer, affected)
		}
		took := time.Since(repairStart)
		sc.met.repairPages.Add(int64(pages))
		sc.met.repairUS.Observe(took.Microseconds())
		if err == nil {
			// Verified converged: the node may serve reads again.
			sc.s.SetQuarantined(node, false)
			sc.met.repairs.Inc()
			rep.Repaired = append(rep.Repaired, node)
		} else {
			// Leave the node quarantined; the next sweep (or the failure
			// detector) picks it up.
			sc.met.repairFailures.Inc()
			rep.Failed = append(rep.Failed, node)
		}
		if sc.opts.OnRepaired != nil {
			sc.opts.OnRepaired(node, pages, took, err == nil)
		}
	}

	sc.met.sweeps.Inc()
	sc.met.tablesChecked.Add(int64(rep.TablesChecked))
	sc.met.conflicts.Add(int64(rep.Conflicts))
	sc.met.skipped.Add(int64(rep.Skipped))
	sc.met.sweepUS.Observe(time.Since(start).Microseconds())
	return rep
}

// checkTable digests one table across the audit peers, recording diverging
// page sets into rep. A racing master commit invalidates the pinned
// frontier (page.ErrVersionConflict); the check restarts with a fresher
// frontier up to FrontierRetries times, then counts the table skipped — the
// next sweep gets another chance.
func (sc *Scrubber) checkTable(t int, peers []replica.Peer, rep *ScrubReport) {
	master := sc.s.Master(sc.s.classOfTableID(t))
	if master == nil {
		rep.Skipped++
		return
	}
	audit := make([]replica.Peer, 0, len(peers))
	for _, p := range peers {
		if p.ID() != master.ID() {
			audit = append(audit, p)
		}
	}
	if len(audit) == 0 {
		return
	}
	for attempt := 0; ; attempt++ {
		conflict, err := sc.compareOnce(t, master, audit, rep)
		if err == nil && !conflict {
			rep.TablesChecked++
			return
		}
		if conflict {
			rep.Conflicts++
			sc.met.conflicts.Inc()
		}
		if attempt >= sc.opts.FrontierRetries {
			rep.Skipped++
			return
		}
	}
}

// compareOnce pins one frontier and compares roots; on mismatch it drills
// down to the page set. Returns conflict=true when any digest lost the race
// to a newer commit (caller retries with a fresh frontier).
func (sc *Scrubber) compareOnce(t int, master replica.Peer, audit []replica.Peer, rep *ScrubReport) (conflict bool, err error) {
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
	for _, p := range live {
		pRoot, err := p.Digest(t, frontier, false)
		if errors.Is(err, page.ErrVersionConflict) {
			return true, nil
		}
		if err != nil {
			continue // peer unreachable/joining: its health is the detector's job
		}
		if pRoot.Root == mRoot.Root {
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
		pFull, err := p.Digest(t, frontier, true)
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
		rep.Diverged[p.ID()] = append(rep.Diverged[p.ID()], ScrubMismatch{
			Table: t, Version: frontier, Pages: diff,
		})
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
	for _, p := range audit {
		pv, err := p.MaxVersions()
		if err != nil {
			continue
		}
		if v := pv.Get(t); v < frontier {
			frontier = v
		}
		live = append(live, p)
	}
	return frontier, live, nil
}

// repair ships the master's current images for every diverged page to the
// node through the same InstallDelta that reintegration uses (an image at
// the page's own version overwrites it: divergence is "same version,
// different bytes"). The StartJoin/FinishJoin bracket makes the install
// safe under live replication: write-sets arriving mid-repair buffer on the
// node and drain through the versioned apply path afterwards, so nothing
// acked is lost and nothing is applied twice.
func (sc *Scrubber) repair(peer replica.Peer, mms []ScrubMismatch) (pages int, err error) {
	if err := peer.StartJoin(); err != nil {
		return 0, fmt.Errorf("scrub repair %s: start join: %w", peer.ID(), err)
	}
	// FinishJoin must run even when shipping fails halfway: it drains the
	// buffered write-sets so the node keeps converging instead of
	// buffering forever.
	defer func() {
		if ferr := peer.FinishJoin(); ferr != nil && err == nil {
			err = fmt.Errorf("scrub repair %s: finish join: %w", peer.ID(), ferr)
		}
	}()
	for _, mm := range mms {
		master := sc.s.Master(sc.s.classOfTableID(mm.Table))
		if master == nil {
			return pages, fmt.Errorf("scrub repair %s: table %d has no master", peer.ID(), mm.Table)
		}
		imgs, err := master.PageImages(mm.Table, mm.Pages)
		if err != nil {
			return pages, fmt.Errorf("scrub repair %s: fetch images: %w", peer.ID(), err)
		}
		if err := peer.InstallDelta(imgs); err != nil {
			return pages, fmt.Errorf("scrub repair %s: install images: %w", peer.ID(), err)
		}
		pages += len(imgs)
	}
	return pages, nil
}

// VerifyConverged re-digests the given tables on the node against their
// class masters at a fresh frontier, retrying frontier races. It reports
// nil when every table matches. Sweep runs it as the post-repair gate; the
// chaos tests call it directly to assert final convergence.
func (sc *Scrubber) VerifyConverged(peer replica.Peer, tables []int) error {
	for _, t := range tables {
		master := sc.s.Master(sc.s.classOfTableID(t))
		if master == nil {
			return fmt.Errorf("scrub verify: table %d has no master", t)
		}
		var lastErr error
		ok := false
		for attempt := 0; attempt <= sc.opts.FrontierRetries; attempt++ {
			frontier, _, err := scrubFrontier(t, master, nil)
			if err != nil {
				lastErr = err
				continue
			}
			if pv, err := peer.MaxVersions(); err == nil {
				if v := pv.Get(t); v < frontier {
					frontier = v
				}
			} else {
				lastErr = err
				continue
			}
			mRoot, err := master.Digest(t, frontier, false)
			if errors.Is(err, page.ErrVersionConflict) {
				lastErr = err
				continue
			}
			if err != nil {
				lastErr = err
				continue
			}
			pRoot, err := peer.Digest(t, frontier, false)
			if errors.Is(err, page.ErrVersionConflict) {
				lastErr = err
				continue
			}
			if err != nil {
				lastErr = err
				continue
			}
			if mRoot.Root != pRoot.Root {
				return fmt.Errorf("scrub verify: %s table %d still diverged at v%d", peer.ID(), t, frontier)
			}
			ok = true
			break
		}
		if !ok {
			return fmt.Errorf("scrub verify: %s table %d: %w", peer.ID(), t, lastErr)
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
