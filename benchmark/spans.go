package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover (children clipped to the parent, overlaps
// between children counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32, len(spans)/2)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// joinSpans gives the spans recorded without a parent one, after the run.
// txn, attempt and stmt spans already link exactly. A txn joins the
// interaction of the client whose span encloses it most tightly (the two
// start and end within microseconds of each other). TxExec joins the stmt
// on the same replica that encloses it most tightly; begin, commit and
// rollback follow their session's TxExec to its txn; a write-set receipt
// and an on-commit join the commit that returned their version, an fsync
// the on-commit that waited for it. It returns how many containment joins
// were a close call between two candidates; the per-layer metrics are
// computed from sums and do not depend on any of this.
func joinSpans(spans []span) (ambiguous int) {
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	// tightest returns the shortest span among the per-client candidates that
	// encloses x and passes ok, and whether another came within closeCall of
	// fitting as tightly.
	const closeCall = 10_000 // ns
	tightest := func(lists [][]int32, x span, ok func(span) bool) (int32, bool) {
		best, bestDur, nextDur := int32(-1), int64(math.MaxInt64), int64(math.MaxInt64)
		for _, l := range lists {
			i := sort.Search(len(l), func(i int) bool { return spans[l[i]].Start > x.Start }) - 1
			if i < 0 {
				continue
			}
			c := spans[l[i]]
			if c.End < x.End || !ok(c) {
				continue
			}
			if d := c.dur(); d < bestDur {
				best, bestDur, nextDur = l[i], d, bestDur
			} else if d < nextDur {
				nextDur = d
			}
		}
		return best, nextDur-bestDur < closeCall
	}
	adopt := func(i int, parent int32, close bool) {
		if parent < 0 {
			return
		}
		if close {
			ambiguous++
		}
		spans[i].Parent = parent
		spans[i].Client, spans[i].Ordinal = spans[parent].Client, spans[parent].Ordinal
	}
	perClient := func(kind spanKind) [][]int32 {
		lists := make([][]int32, clients)
		for i, s := range spans {
			if s.Kind == kind && s.Client >= 0 {
				lists[s.Client] = append(lists[s.Client], int32(i))
			}
		}
		for _, l := range lists {
			byStart(l)
		}
		return lists
	}
	enclosing := func(span) bool { return true }

	interactions := perClient(kInteraction)
	for i, s := range spans {
		if s.Kind == kTxn {
			p, n := tightest(interactions, s, func(c span) bool { return c.Update == s.Update })
			adopt(i, p, n)
		}
	}
	// A child's slot is claimed after its parent's, so one pass in index
	// order carries the interaction id down txn -> attempt -> stmt.
	for i, s := range spans {
		if (s.Kind == kAttempt || s.Kind == kStmt) && s.Parent >= 0 {
			spans[i].Client, spans[i].Ordinal = spans[s.Parent].Client, spans[s.Parent].Ordinal
		}
	}
	// TxExec joins its stmt by containment; the other calls of the same
	// replica session then follow it to that stmt's txn, and on-commit
	// follows the commit that returned its version.
	txns, stmts := perClient(kTxn), perClient(kStmt)
	type session struct {
		peer int8
		tx   uint64
	}
	txnOf := make(map[session]int32, 1024)
	for i, s := range spans {
		if s.Kind != kExec {
			continue
		}
		p, n := tightest(stmts, s, func(c span) bool { return c.Peer == s.Peer })
		adopt(i, p, n)
		if p >= 0 && spans[p].Parent >= 0 {
			txnOf[session{s.Peer, s.Tx}] = spans[spans[p].Parent].Parent
		}
	}
	commits := make(map[uint64]int32, 1024)
	for i, s := range spans {
		switch s.Kind {
		case kBegin, kCommit, kRollback:
			if p, ok := txnOf[session{s.Peer, s.Tx}]; ok && p >= 0 {
				adopt(i, p, false)
			} else {
				p, n := tightest(txns, s, func(c span) bool { return c.Update == s.Update })
				adopt(i, p, n)
			}
			if s.Kind == kCommit && s.Update && !s.Failed {
				commits[s.Ver] = int32(i)
			}
		}
	}
	for i, s := range spans {
		if s.Kind == kOnCommit {
			if c, ok := commits[s.Ver]; ok && spans[c].Parent >= 0 {
				adopt(i, spans[c].Parent, false)
			}
		}
	}
	onCommits := perClient(kOnCommit)
	for i, s := range spans {
		switch s.Kind {
		case kWSRecv:
			if p, ok := commits[s.Ver]; ok {
				adopt(i, p, false)
			}
		case kFsync:
			p, n := tightest(onCommits, s, enclosing)
			adopt(i, p, n)
		}
	}
	return ambiguous
}

// traceSpan is the trace file's record.
type traceSpan struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  int32   `json:"parent"`
	Client  int16   `json:"client"`
	Ordinal int32   `json:"ordinal"`
	Peer    int8    `json:"peer"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	Update  bool    `json:"update"`
	Failed  bool    `json:"failed,omitempty"`
}

// writeTrace joins one traced repetition's spans and writes them as JSON.
func writeTrace(out io.Writer, workload string, spans []span) error {
	ambiguous := joinSpans(spans)
	self := selfTimes(spans)
	recs := make([]traceSpan, len(spans))
	for i, s := range spans {
		recs[i] = traceSpan{ID: i, Name: kindNames[s.Kind], Parent: s.Parent, Client: s.Client, Ordinal: s.Ordinal,
			Peer: s.Peer, StartUS: float64(s.Start) / 1e3, EndUS: float64(s.End) / 1e3, SelfUS: float64(self[i]) / 1e3,
			Update: s.Update, Failed: s.Failed}
	}
	return json.NewEncoder(out).Encode(map[string]any{
		"workload": workload, "ambiguous_joins": ambiguous, "spans": recs,
	})
}
