package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

var testDDL = []string{
	`CREATE TABLE account (a_id INT PRIMARY KEY, a_owner VARCHAR(20), a_balance INT)`,
	`CREATE TABLE audit (x_id INT PRIMARY KEY, x_a_id INT, x_delta INT)`,
	`CREATE INDEX ix_audit_acct ON audit (x_a_id)`,
}

func testLoad(n int) func(e *heap.Engine) error {
	return func(e *heap.Engine) error {
		tid, ok := e.TableID("account")
		if !ok {
			return fmt.Errorf("no account table")
		}
		rows := make([]value.Row, 0, n)
		for i := 1; i <= n; i++ {
			rows = append(rows, value.Row{
				value.NewInt(int64(i)),
				value.NewString(fmt.Sprintf("owner-%d", i)),
				value.NewInt(1000),
			})
		}
		return e.Load(tid, rows)
	}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.SchemaDDL == nil {
		cfg.SchemaDDL = testDDL
	}
	if cfg.Load == nil {
		cfg.Load = testLoad(100)
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 5 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func deposit(t *testing.T, c *Cluster, acct, delta, auditID int64) error {
	t.Helper()
	return c.Run(scheduler.TxnSpec{Tables: []string{"account", "audit"}}, func(tx *scheduler.Txn) error {
		if _, err := tx.Exec(`UPDATE account SET a_balance = a_balance + ? WHERE a_id = ?`,
			value.NewInt(delta), value.NewInt(acct)); err != nil {
			return err
		}
		_, err := tx.Exec(`INSERT INTO audit (x_id, x_a_id, x_delta) VALUES (?, ?, ?)`,
			value.NewInt(auditID), value.NewInt(acct), value.NewInt(delta))
		return err
	})
}

func readBalance(t *testing.T, c *Cluster, acct int64) int64 {
	t.Helper()
	var bal int64
	err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
		v, err := tx.QueryInt(`SELECT a_balance FROM account WHERE a_id = ?`, value.NewInt(acct))
		if err != nil {
			return err
		}
		bal = v
		return nil
	})
	if err != nil {
		t.Fatalf("read balance: %v", err)
	}
	return bal
}

// TestAssembleWantsOneMasterPerClass: a tier whose masters do not match its
// conflict classes one to one is refused.
func TestAssembleWantsOneMasterPerClass(t *testing.T) {
	classes := []scheduler.ConflictClass{{Name: "a", Tables: []string{"account"}}, {Name: "x", Tables: []string{"audit"}}}
	n := replica.NewNode(replica.Options{ID: "master0", Engine: heap.NewEngine(heap.Options{})})
	for _, m := range [][]replica.Peer{nil, {n}, {n, n, n}} {
		if _, err := Assemble(Config{Classes: classes, SchemaDDL: testDDL}, Members{Masters: m}, nil, nil); err == nil {
			t.Errorf("Assemble with %d masters for 2 classes succeeded", len(m))
		}
	}
}

// TestLoadedFrontierSeedsEveryScheduler: an image that already holds a
// committed update (a whole-tier restart replays its durable log into every
// node) is the frontier of every scheduler, the standbys' included, or a
// standby taking over would tag readers with versions the nodes have
// overwritten.
func TestLoadedFrontierSeedsEveryScheduler(t *testing.T) {
	load := testLoad(10)
	c := newTestCluster(t, Config{Slaves: 1, PeerSchedulers: 1, Load: func(e *heap.Engine) error {
		if err := load(e); err != nil {
			return err
		}
		return exec.Replay(e, []exec.LoggedStmt{{Text: `UPDATE account SET a_balance = 7 WHERE a_id = 1`}})
	}})
	master, _ := c.Node(c.MasterID(0))
	applied := master.Engine().AppliedVersions()
	if applied.Equal(vclock.New(len(applied))) {
		t.Fatalf("master applied %v after a committed update in Load", applied)
	}
	if len(c.scheds) != 2 {
		t.Fatalf("%d schedulers, want a primary and one standby", len(c.scheds))
	}
	for i, s := range c.scheds {
		if got := s.Latest(); !got.DominatesOrEqual(applied) {
			t.Errorf("scheduler %d latest %v does not cover the loaded frontier %v", i, got, applied)
		}
	}
}

func TestClusterReadYourWrites(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 3})
	for i := 1; i <= 20; i++ {
		if err := deposit(t, c, 7, 10, int64(i)); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		// A read tagged with the new version must observe the deposit on
		// whichever slave it lands.
		if bal := readBalance(t, c, 7); bal != int64(1000+10*i) {
			t.Fatalf("after %d deposits balance = %d, want %d", i, bal, 1000+10*i)
		}
	}
	// All slaves hold the data (lazily); a scan-style read sums audits.
	var total int64
	err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"audit"}}, func(tx *scheduler.Txn) error {
		v, err := tx.QueryInt(`SELECT SUM(x_delta) FROM audit WHERE x_a_id = 7`)
		if err != nil {
			return err
		}
		total = v
		return nil
	})
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if total != 200 {
		t.Fatalf("audit sum = %d, want 200", total)
	}
}

func TestClusterConcurrentWorkload(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 3, MaxRetries: 20})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	var auditSeq int64
	var seqMu sync.Mutex
	nextAudit := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		auditSeq++
		return auditSeq
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				acct := int64(w*10 + i%10 + 1)
				if err := deposit(t, c, acct, 1, nextAudit()); err != nil {
					errCh <- fmt.Errorf("worker %d deposit: %w", w, err)
					return
				}
				if err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
					_, err := tx.Exec(`SELECT a_balance FROM account WHERE a_id = ?`, value.NewInt(acct))
					return err
				}); err != nil {
					errCh <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every replica must converge: total deposited = 200.
	var sum int64
	err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"audit"}}, func(tx *scheduler.Txn) error {
		v, err := tx.QueryInt(`SELECT COUNT(*) FROM audit`)
		if err != nil {
			return err
		}
		sum = v
		return nil
	})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if sum != 200 {
		t.Fatalf("audit count = %d, want 200", sum)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSlaveFailoverActivatesSpare(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, Spares: 1, MaxRetries: 20})
	if err := deposit(t, c, 1, 5, 1); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if err := c.Kill("slave0"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, id := range c.Scheduler().Slaves() {
			if id == "spare0" {
				return true
			}
		}
		return false
	}, "spare activation")
	// The tier keeps serving consistent reads.
	if bal := readBalance(t, c, 1); bal != 1005 {
		t.Fatalf("balance = %d, want 1005", bal)
	}
	// And the activated spare serves correct data when it is chosen.
	for i := 0; i < 20; i++ {
		if bal := readBalance(t, c, 1); bal != 1005 {
			t.Fatalf("balance after failover = %d, want 1005", bal)
		}
	}
}

func TestMasterFailoverElectsSlave(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 3, MaxRetries: 30})
	for i := 1; i <= 10; i++ {
		if err := deposit(t, c, 2, 1, int64(i)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	oldMaster := c.MasterID(0)
	if err := c.Kill(oldMaster); err != nil {
		t.Fatalf("kill master: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		id := c.MasterID(0)
		return id != "" && id != oldMaster
	}, "master election")

	// Updates resume on the new master and reads still see everything.
	waitFor(t, 2*time.Second, func() bool {
		return deposit(t, c, 2, 1, 11) == nil
	}, "update after election")
	if bal := readBalance(t, c, 2); bal != 1011 {
		t.Fatalf("balance = %d, want 1011", bal)
	}
	// Committed state survived the fail-over (all 10 pre-failure deposits).
	var cnt int64
	err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"audit"}}, func(tx *scheduler.Txn) error {
		v, err := tx.QueryInt(`SELECT COUNT(*) FROM audit`)
		cnt = v
		return err
	})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if cnt != 11 {
		t.Fatalf("audit count = %d, want 11", cnt)
	}
}

func TestNodeRestartReintegrates(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 20, CheckpointPeriod: 20 * time.Millisecond})
	for i := 1; i <= 30; i++ {
		if err := deposit(t, c, 3, 1, int64(i)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let a checkpoint land
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 1
	}, "slave removal")

	// More commits while the node is down.
	for i := 31; i <= 40; i++ {
		if err := deposit(t, c, 3, 1, int64(i)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 2
	}, "reintegration")

	// Force many reads so some land on the reintegrated node; all must see
	// the full history.
	for i := 0; i < 30; i++ {
		if bal := readBalance(t, c, 3); bal != 1040 {
			t.Fatalf("balance = %d, want 1040", bal)
		}
	}
}

// TestStaleReportSparesRestartedNode: a failure report about a killed
// node's old incarnation can land after Restart has replaced it (reports
// are asynchronous); it must not declare the restarted node dead, which
// would leave it in read placement without a replication stream.
func TestStaleReportSparesRestartedNode(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 20})
	old, _ := c.Peer("slave1")
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 1
	}, "slave removal")
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c.applyHealth("slave1", c.note(old, 0, old.Ping()))
	if h := c.Health("slave1"); h != healthy {
		t.Fatalf("restarted slave1 is %s after its old incarnation's report, want healthy", h)
	}
	if n := len(c.Scheduler().Slaves()); n != 2 {
		t.Fatalf("%d slaves in read placement, want 2", n)
	}
}

// TestRestartReplacesKilledIncarnation: a node restarted before any probe
// has seen its death replaces the killed object in read placement at once.
// Reads never reach the killed object, so none reports a failure, and the
// rebuilt node serves its share of them.
func TestRestartReplacesKilledIncarnation(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, HeartbeatInterval: time.Hour})
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	n, _ := c.Node("slave1")
	placed := false
	for _, p := range c.Scheduler().SlaveList() {
		if p.ID() == "slave1" {
			placed = p == replica.Peer(n)
		}
	}
	if !placed {
		t.Fatalf("read placement lacks the rebuilt slave1: %v", c.Scheduler().Slaves())
	}
	before := c.Scheduler().Stats().Failovers.Load()
	onRebuilt := 0
	for i := 0; i < 40; i++ {
		err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
			if tx.Replica() == "slave1" {
				onRebuilt++
			}
			_, err := tx.QueryInt(`SELECT a_balance FROM account WHERE a_id = ?`, value.NewInt(1))
			return err
		})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if d := c.Scheduler().Stats().Failovers.Load() - before; d != 0 {
		t.Fatalf("40 reads reported %d replica failures, want 0", d)
	}
	if onRebuilt == 0 {
		t.Fatal("the rebuilt slave1 served none of 40 reads")
	}
}

// TestDeathVerdictSparesRestartedNode: a death the detector decided for a
// killed incarnation, applied only after Restart has replaced it, leaves
// the rebuilt node healthy and in read placement.
func TestDeathVerdictSparesRestartedNode(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, HeartbeatInterval: time.Hour})
	old, _ := c.Peer("slave1")
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	death := c.note(old, 0, old.Ping())
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c.applyHealth("slave1", death)
	if h := c.Health("slave1"); h != healthy {
		t.Fatalf("rebuilt slave1 is %s after its killed incarnation's death verdict, want healthy", h)
	}
	if got := c.Scheduler().Slaves(); len(got) != 2 {
		t.Fatalf("slaves = %v, want slave0 and slave1", got)
	}
}

// TestRestartBuildsLikeFirstIncarnation: New and Restart build nodes
// through one path, so a first incarnation writes its checkpoints under
// CheckpointDir, a restarted node keeps DefaultDeadline, and the cluster
// view's lag follows the restarted node's engine instead of the dead one's.
func TestRestartBuildsLikeFirstIncarnation(t *testing.T) {
	const deadline = 200 * time.Millisecond
	dir := t.TempDir()
	reg := obs.New()
	c := newTestCluster(t, Config{
		Slaves:           2,
		MaxRetries:       20,
		CheckpointPeriod: 5 * time.Millisecond,
		CheckpointDir:    dir,
		DefaultDeadline:  deadline,
		Obs:              reg,
	})
	ckpt := filepath.Join(dir, "slave1.ckpt")
	for start := time.Now(); time.Since(start) < time.Second; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("first incarnation wrote no checkpoint under CheckpointDir: %v", err)
	}

	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 1
	}, "slave removal")
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 1; i <= 10; i++ {
		if err := deposit(t, c, 3, 1, int64(i)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}

	n, _ := c.Node("slave1")
	if err := n.Engine().MaterializeAll(c.Scheduler().Latest()); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	for _, nl := range c.ClusterSnapshot().Nodes {
		if nl.Node != "slave1" {
			continue
		}
		for ti, name := range n.Engine().TableNames() {
			if nl.Lag[ti] != 0 {
				t.Errorf("table %s: snapshot lag %d, want 0", name, nl.Lag[ti])
			}
		}
	}

	tx, err := n.TxBegin(true, c.Scheduler().Latest(), 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	time.Sleep(deadline + 50*time.Millisecond)
	if _, err := n.TxExec(tx, `SELECT a_balance FROM account WHERE a_id = 3`, nil); !errors.Is(err, replica.ErrDeadlineExpired) {
		t.Errorf("statement past DefaultDeadline on the restarted node: err = %v, want ErrDeadlineExpired", err)
	}
}

func TestStaleSpareFailover(t *testing.T) {
	c := newTestCluster(t, Config{
		Slaves:     2,
		Spares:     1,
		SpareMode:  SpareStale,
		MaxRetries: 20,
	})
	for i := 1; i <= 25; i++ {
		if err := deposit(t, c, 4, 2, int64(i)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	if err := c.Kill("slave0"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, id := range c.Scheduler().Slaves() {
			if id == "spare0" {
				return true
			}
		}
		return false
	}, "stale spare reintegration")
	for i := 0; i < 20; i++ {
		if bal := readBalance(t, c, 4); bal != 1050 {
			t.Fatalf("balance = %d, want 1050", bal)
		}
	}
	// The migration event must record shipped pages.
	found := false
	for _, ev := range c.Events() {
		if ev.Kind == EventReintegrated && ev.Node == "spare0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reintegration event for spare0: %+v", c.Events())
	}
}

func TestVersionAffinityKeepsAbortsLow(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 3, MaxRetries: 50})
	var wg sync.WaitGroup
	stopWriters := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := int64(1)
		for {
			select {
			case <-stopWriters:
				return
			default:
			}
			_ = deposit(t, c, i%50+1, 1, 1000+i)
			i++
		}
	}()
	var readWG sync.WaitGroup
	for r := 0; r < 6; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for i := 0; i < 50; i++ {
				_ = c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
					_, err := tx.Exec(`SELECT COUNT(*) FROM account WHERE a_balance > 0`)
					return err
				})
			}
		}()
	}
	readWG.Wait()
	close(stopWriters)
	wg.Wait()

	st := c.Scheduler().Stats()
	reads := st.ReadTxns.Load()
	aborts := st.VersionAborts.Load()
	if reads == 0 {
		t.Fatal("no reads completed")
	}
	// The paper reports <2.5% aborts; allow slack for the tiny test DB.
	if float64(aborts) > 0.25*float64(reads)+5 {
		t.Fatalf("aborts = %d of %d reads; affinity not working", aborts, reads)
	}
}
