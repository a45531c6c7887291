package main

import (
	"fmt"

	"dmv/internal/exec"
	"dmv/internal/persist"
	"dmv/internal/tpcw"
	"dmv/internal/value"
	"dmv/internal/wal"
)

// verify is the correctness oracle, run after every repetition and before
// any metric is printed:
//
//   - the three nodes agree on the digest of all eight tables at the final
//     commit frontier;
//   - every acknowledged CustomerRegistration, BuyConfirm and AdminConfirm is
//     visible to a read-only transaction on each slave;
//   - on the durable workload, reopening the WAL directory recovers one
//     record per acknowledged update (more only if an interaction failed
//     after its commit may have landed).
func verify(top *topology, w workload, failed int) error {
	frontier := top.sched.Latest()
	master := top.nodes[0].Engine()
	for _, name := range tpcw.TableNames() {
		tid, ok := master.TableID(name)
		if !ok {
			return fmt.Errorf("table %s missing", name)
		}
		want, err := master.TableDigestAt(tid, frontier.Get(tid), false)
		if err != nil {
			return fmt.Errorf("digest %s on master: %w", name, err)
		}
		for _, n := range top.nodes[1:] {
			got, err := n.Engine().TableDigestAt(tid, frontier.Get(tid), false)
			if err != nil {
				return fmt.Errorf("digest %s on %s: %w", name, n.ID(), err)
			}
			if got.Root != want.Root {
				return fmt.Errorf("table %s diverged: %s digest %x, master %x at version %d",
					name, n.ID(), got.Root, want.Root, frontier.Get(tid))
			}
		}
	}

	acks := top.acks.items()
	if top.acks.dropped.Load() > 0 {
		return fmt.Errorf("acknowledged-write log overflowed")
	}
	order, err := exec.Prepare(`SELECT o_id FROM orders WHERE o_id = ?`)
	if err != nil {
		return err
	}
	customer, err := exec.Prepare(`SELECT c_id FROM customer WHERE c_id = ?`)
	if err != nil {
		return err
	}
	item, err := exec.Prepare(`SELECT i_cost, i_pub_date FROM item WHERE i_id = ?`)
	if err != nil {
		return err
	}
	// Two clients may rewrite one item concurrently, so the surviving values
	// must be those of some acknowledged AdminConfirm for it.
	type itemVal struct {
		cost float64
		date int64
	}
	admin := make(map[int64][]itemVal, 64)
	for _, a := range acks {
		if a.kind == tpcw.AdminConfirm {
			admin[a.id] = append(admin[a.id], itemVal{a.cost, a.date})
		}
	}
	for _, n := range top.nodes[1:] {
		tx := n.Engine().BeginRead(frontier)
		for _, a := range acks {
			key := []value.Value{value.NewInt(a.id)}
			switch a.kind {
			case tpcw.BuyConfirm, tpcw.CustomerRegistration:
				p := order
				if a.kind == tpcw.CustomerRegistration {
					p = customer
				}
				res, err := p.Exec(tx, key)
				if err != nil {
					return fmt.Errorf("%s: read back %s %d: %w", n.ID(), a.kind, a.id, err)
				}
				if len(res.Rows) != 1 {
					return fmt.Errorf("%s: acknowledged %s %d is not visible", n.ID(), a.kind, a.id)
				}
			case tpcw.AdminConfirm:
				res, err := item.Exec(tx, key)
				if err != nil {
					return fmt.Errorf("%s: read back item %d: %w", n.ID(), a.id, err)
				}
				if len(res.Rows) != 1 {
					return fmt.Errorf("%s: item %d missing", n.ID(), a.id)
				}
				got := itemVal{res.Rows[0][0].AsFloat(), res.Rows[0][1].AsInt()}
				seen := false
				for _, v := range admin[a.id] {
					seen = seen || v == got
				}
				if !seen {
					return fmt.Errorf("%s: item %d holds %v, which no acknowledged AdminConfirm wrote", n.ID(), a.id, got)
				}
			}
		}
	}

	if w.durable {
		top.closeTier()
		log, err := persist.OpenLog(persist.DurableConfig{Dir: top.walDir, Policy: wal.SyncAlways})
		if err != nil {
			return fmt.Errorf("reopen wal: %w", err)
		}
		recovered := log.Base + len(log.Records)
		if err := log.WAL.Close(); err != nil {
			return fmt.Errorf("close reopened wal: %w", err)
		}
		if recovered < len(acks) || (failed == 0 && recovered != len(acks)) {
			return fmt.Errorf("wal recovered %d commit records, %d update commits were acknowledged", recovered, len(acks))
		}
	}
	return nil
}
