// Package harness drives the paper's experiments: it adapts the database
// tiers (DMV cluster, stand-alone on-disk database, replicated InnoDB
// baseline) to the TPC-W workload interface, emulates closed-loop browser
// clients and open-loop arrivals, records windowed throughput/latency
// timelines, and renders them as ASCII charts.
package harness

import (
	"time"

	"dmv/internal/cluster"
	"dmv/internal/innodb"
	"dmv/internal/scheduler"
	"dmv/internal/tpcw"
)

// DMVStore adapts a DMV tier, in process or over TCP, to the TPC-W Store
// interface.
type DMVStore struct {
	P *cluster.Plane
	// Deadline, when positive, is attached to every transaction as its
	// give-up time from the moment it is run.
	Deadline time.Duration
}

var _ tpcw.Store = DMVStore{}

// Run implements tpcw.Store.
func (s DMVStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	spec := scheduler.TxnSpec{ReadOnly: readOnly, Tables: tables}
	if s.Deadline > 0 {
		spec.Deadline = time.Now().Add(s.Deadline)
	}
	return s.P.Run(spec, func(tx *scheduler.Txn) error {
		return fn(tx)
	})
}

// InnoDBStore adapts a stand-alone on-disk database (the Figure 3 baseline).
type InnoDBStore struct {
	DB *innodb.DB
}

var _ tpcw.Store = InnoDBStore{}

// Run implements tpcw.Store.
func (s InnoDBStore) Run(readOnly bool, _ []string, fn func(tpcw.Querier) error) error {
	run := func(q *innodb.Session) error { return fn(q) }
	if readOnly {
		return s.DB.ReadTxn(run)
	}
	return s.DB.UpdateTxn(run)
}

// InnoDBTierStore adapts the replicated InnoDB baseline (the Figure 5a/b
// fail-over comparison).
type InnoDBTierStore struct {
	T *innodb.Tier
}

var _ tpcw.Store = InnoDBTierStore{}

// Run implements tpcw.Store.
func (s InnoDBTierStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	run := func(q *innodb.Session) error { return fn(q) }
	if readOnly {
		return s.T.Read(run)
	}
	return s.T.Update(tables, run)
}
