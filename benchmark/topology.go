package main

import (
	"fmt"
	"os"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/persist"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
	"dmv/internal/wal"
)

// The engine settings of every recorded experiment in this repository.
var engineOptions = heap.Options{PageCap: 8, LockTimeout: 50 * time.Millisecond}

var nodeIDs = []string{"master", "slave1", "slave2"}

// topology is one hand-wired tier: a master, two slaves and a scheduler,
// optionally with loopback TCP between all of them or a persistence tier
// behind the scheduler. No service-time model, no simulated disk cost.
type topology struct {
	nodes   []*replica.Node // master first
	sched   *scheduler.Scheduler
	store   tpcw.Store
	acks    *appendLog[ack]
	servers []*transport.Server
	remotes []*transport.RemoteNode // the scheduler's handles, tcp only

	tier    *persist.Tier
	backend *persist.Backend
	walDir  string
	tierErr chan error

	reg       *obs.Registry    // traced only
	tr        *tracer          // traced only
	writeSets []*heap.WriteSet // traced only: every write-set, in commit order
}

// newEngine builds one engine holding the initial TPC-W image.
func newEngine(opts heap.Options) (*heap.Engine, error) {
	e := heap.NewEngine(opts)
	for _, ddl := range tpcw.SchemaDDL() {
		if err := exec.ExecDDL(e, ddl); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	if err := scale.Load(e); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return e, nil
}

// build wires a topology for w. With a tracer the public seams are
// decorated and one registry is handed to every layer; without, the peers
// and the store are bare. interactions sizes the acknowledged-write log.
func build(w workload, seed int64, tr *tracer, scratch string, interactions int) (*topology, error) {
	top := &topology{tr: tr, acks: newAppendLog[ack](interactions), tierErr: make(chan error, 1)}
	ok := false
	defer func() {
		if !ok {
			top.close()
		}
	}()
	if tr != nil {
		top.reg = obs.New()
	}

	for _, id := range nodeIDs {
		opts := engineOptions
		opts.Obs, opts.NodeID = top.reg, id
		e, err := newEngine(opts)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		top.nodes = append(top.nodes, replica.NewNode(replica.Options{ID: id, Engine: e, Obs: top.reg}))
	}

	// handles[i] is what the scheduler calls node i through; subs are what
	// the master broadcasts through.
	handles := make([]replica.Peer, len(top.nodes))
	subs := make([]replica.Peer, 0, len(top.nodes)-1)
	if w.tcp {
		opts := transport.ClientOptions{
			DialTimeout: 2 * time.Second,
			CallTimeout: 5 * time.Second,
			PingTimeout: time.Second,
			Seed:        seed,
			Obs:         top.reg,
		}
		for i, n := range top.nodes {
			srv, err := transport.ServeNodeObs(n, "127.0.0.1:0", top.reg)
			if err != nil {
				return nil, fmt.Errorf("serve %s: %w", n.ID(), err)
			}
			top.servers = append(top.servers, srv)
			r, err := transport.DialNodeOpts(n.ID(), srv.Addr(), opts)
			if err != nil {
				return nil, fmt.Errorf("scheduler dial %s: %w", n.ID(), err)
			}
			handles[i] = r
			top.remotes = append(top.remotes, r)
			if i > 0 {
				s, err := transport.DialNodeOpts(n.ID(), srv.Addr(), opts)
				if err != nil {
					return nil, fmt.Errorf("master dial %s: %w", n.ID(), err)
				}
				subs = append(subs, s)
			}
		}
	} else {
		for i, n := range top.nodes {
			handles[i] = n
			if i > 0 {
				subs = append(subs, n)
			}
		}
	}
	if tr != nil {
		for i := range handles {
			handles[i] = &tracedPeer{Peer: handles[i], t: tr, idx: int8(i)}
		}
		for i := range subs {
			s := &tracedSubscriber{Peer: subs[i], t: tr, idx: int8(i + 1)}
			if i == 0 {
				s.keep = &top.writeSets
			}
			subs[i] = s
		}
	}

	var onCommit func(scheduler.CommitRecord)
	if w.durable {
		top.walDir = scratch + "/wal"
		if err := os.MkdirAll(top.walDir, 0o755); err != nil {
			return nil, err
		}
		var fs wal.FS = wal.OsFS{}
		if tr != nil {
			fs = tracedFS{FS: fs, t: tr}
		}
		log, err := persist.OpenLog(persist.DurableConfig{Dir: top.walDir, FS: fs, Policy: wal.SyncAlways, Obs: top.reg})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		top.backend, err = persist.NewBackend("disk0", simdisk.CostModel{}, 0, tpcw.SchemaDDL(), scale.Load)
		if err != nil {
			_ = log.WAL.Close()
			return nil, err
		}
		top.tier = persist.NewTier(persist.Options{
			Backends: []*persist.Backend{top.backend},
			Log:      log,
			Obs:      top.reg,
			OnError: func(err error) {
				select {
				case top.tierErr <- err:
				default: // the first error is the one reported
				}
			},
		})
		onCommit = top.tier.OnCommit
		if tr != nil {
			onCommit = tr.wrapOnCommit(onCommit)
		}
	}

	ref := top.nodes[0].Engine()
	sched, err := scheduler.New(scheduler.Options{
		VersionAffinity: true,
		MaxRetries:      30,
		OnCommit:        onCommit,
		Seed:            seed,
		Obs:             top.reg,
	}, ref.NumTables(), ref.TableID)
	if err != nil {
		return nil, err
	}
	top.sched = sched
	if err := top.nodes[0].Promote(sched.ClassTables(0)); err != nil {
		return nil, err
	}
	top.nodes[0].SetSubscribers(subs)
	sched.SetMaster(0, handles[0])
	for _, h := range handles[1:] {
		sched.AddSlave(h)
	}

	top.store = schedStore{sched: sched, acks: top.acks}
	if tr != nil {
		idx := make(map[string]int8, len(nodeIDs))
		for i, id := range nodeIDs {
			idx[id] = int8(i)
		}
		top.store = &tracedStore{inner: top.store, t: tr, peerIdx: idx}
	}
	ok = true
	return top, nil
}

// closeTier stops the persistence tier's applier and closes the WAL; safe
// to call twice.
func (top *topology) closeTier() {
	if top.tier != nil {
		top.tier.Close()
		top.tier = nil
	}
}

// close stops everything the topology started and removes its WAL.
func (top *topology) close() {
	top.closeTier()
	for _, s := range top.servers {
		s.Close()
	}
	top.servers = nil
	if top.walDir != "" {
		_ = os.RemoveAll(top.walDir)
	}
}
