package fleet

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"harness2/internal/clock"
	"harness2/internal/dvm"
	"harness2/internal/events"
	"harness2/internal/registry"
	"harness2/internal/runnerbox"
	"harness2/internal/simnet"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

// fastRestart keeps crash-recovery tests quick and bounded.
var fastRestart = "restart backoff=2ms max=10ms limit=8\n"

func testBox(name string, labels map[string]string) BoxInfo {
	return BoxInfo{
		Name:   name,
		Box:    runnerbox.New(runnerbox.NewLocalBackend()),
		Labels: labels,
	}
}

func newTestSup(t *testing.T, cfg Config, boxes ...BoxInfo) *Supervisor {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.SpawnTimeout == 0 {
		cfg.SpawnTimeout = 5 * time.Second
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sup.Close() })
	for _, b := range boxes {
		if err := sup.Enroll(b); err != nil {
			t.Fatal(err)
		}
	}
	return sup
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// pollUnit waits until pred holds for the unit's status.
func pollUnit(t *testing.T, sup *Supervisor, id string, what string, pred func(UnitStatus) bool) UnitStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last UnitStatus
	for time.Now().Before(deadline) {
		st, _, err := sup.Attach(id, 0)
		if err == nil {
			last = st
			if pred(st) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("unit %s never reached %s; last %+v", id, what, last)
	return last
}

func TestDeployPlacesByConstraintAndServes(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("eu-1", map[string]string{"zone": "eu"}),
		testBox("us-1", map[string]string{"zone": "us"}),
	)
	d, err := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,FleetCounter\nrequire label.zone=eu\n")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("got %d units, want 2", len(ids))
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 2); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, _, err := sup.Attach(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Box != "eu-1" {
			t.Fatalf("unit %s placed on %s, want eu-1 (constraint)", id, st.Box)
		}
		if st.State != "serving" {
			t.Fatalf("unit %s state %s", id, st.State)
		}
	}
	// Each unit lease-published both components under deterministic keys.
	if reg.Len() != 4 {
		t.Fatalf("registry holds %d entries, want 4", reg.Len())
	}
	if _, ok := reg.Get(ids[0] + "::matmul"); !ok {
		t.Fatalf("missing deterministic key %s::matmul", ids[0])
	}

	// Duplicate deployment names are refused; impossible constraints too.
	if _, err := sup.Deploy(d); err == nil {
		t.Fatal("duplicate deployment accepted")
	}
	d2, _ := ParseDescriptor("deploy mars\ncomponent MatMul\nrequire label.zone=mars\n")
	if _, err := sup.Deploy(d2); err == nil || !strings.Contains(err.Error(), "no enrolled box") {
		t.Fatalf("impossible constraint: %v", err)
	}
}

func TestLeastLoadedSpread(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil), testBox("b", nil),
	)
	d, _ := ParseDescriptor("deploy web\nreplicas 4\ncomponent MatMul\n")
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 4); err != nil {
		t.Fatal(err)
	}
	perBox := map[string]int{}
	for _, id := range ids {
		st, _, _ := sup.Attach(id, 0)
		perBox[st.Box]++
	}
	if perBox["a"] != 2 || perBox["b"] != 2 {
		t.Fatalf("placement %v, want 2+2", perBox)
	}
}

// TestCrashRestartRecoversLease is the heart of the subsystem: an abrupt
// kill leaves the registration dangling, the supervisor detects the
// crash, restarts with backoff, and the restarted unit republishes under
// the same key — the registry never returns a failed find and never
// accumulates duplicates.
func TestCrashRestartRecoversLease(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil),
	)
	d, err := ParseDescriptor("deploy web\ncomponent FleetCounter\nlease 30s\n" + fastRestart)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	unit := ids[0]
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 1); err != nil {
		t.Fatal(err)
	}
	key := unit + "::fleetcounter"
	if _, ok := reg.Get(key); !ok {
		t.Fatalf("no registration at %s", key)
	}

	if err := sup.Kill(unit); err != nil {
		t.Fatal(err)
	}
	// While the supervisor recovers, the find must keep succeeding: the
	// crashed unit's lease dangles until the restart replaces it.
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		if _, ok := reg.Get(key); !ok {
			t.Fatal("find failed during recovery: registration vanished")
		}
		if st, _, _ := sup.Attach(unit, 0); st.State == "serving" && st.Restarts >= 1 {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("unit never recovered from the kill")
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d entries after recovery, want 1 (replaced, not duplicated)", reg.Len())
	}
	// The canonical log recorded the whole arc.
	evs, _ := sup.Log().Since(0)
	var kinds []string
	for _, ev := range evs {
		if ev.Unit == unit {
			kinds = append(kinds, ev.Kind)
		}
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{EvSpawn, EvServing, EvCrash, EvRestart} {
		if !strings.Contains(joined, want) {
			t.Fatalf("log %s missing %q", joined, want)
		}
	}
}

func TestSpawnFailuresExhaustRestartBudget(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{
		Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg, FailFirst: 1 << 30}),
	}, testBox("a", nil))
	d, _ := ParseDescriptor("deploy doomed\ncomponent MatMul\nrestart backoff=1ms max=2ms limit=3\n")
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	err = sup.WaitServing(ctxT(t, 5*time.Second), "doomed", 1)
	if err == nil || !strings.Contains(err.Error(), "no restartable units") {
		t.Fatalf("WaitServing = %v, want terminal-units error", err)
	}
	st := pollUnit(t, sup, ids[0], "failed", func(st UnitStatus) bool { return st.State == "failed" })
	if st.Consecutive != 3 {
		t.Fatalf("consecutive crashes = %d, want 3 (the limit)", st.Consecutive)
	}
	evs, _ := sup.Log().Since(0)
	var failed bool
	for _, ev := range evs {
		failed = failed || ev.Kind == EvFail
	}
	if !failed {
		t.Fatal("no fail event logged")
	}
}

func TestSpawnFailureThenRecovery(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{
		Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg, FailFirst: 2}),
	}, testBox("a", nil))
	d, _ := ParseDescriptor("deploy web\ncomponent MatMul\n" + fastRestart)
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 1); err != nil {
		t.Fatal(err)
	}
	st, _, _ := sup.Attach(ids[0], 0)
	if st.Restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2 (two failed launches)", st.Restarts)
	}
	if st.Consecutive != 0 {
		t.Fatalf("consecutive = %d after a healthy serve, want 0", st.Consecutive)
	}
}

func TestGracefulStopReleasesLeases(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil))
	d, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,WSTime\nlease 30s\n")
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 2); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 4 {
		t.Fatalf("registry = %d entries, want 4", reg.Len())
	}
	// Stop one unit: its two registrations are released immediately (not
	// left to lease expiry — these leases run 30s), and it stays stopped.
	if err := sup.StopUnit(ctxT(t, 5*time.Second), ids[0]); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry = %d entries after stop, want 2", reg.Len())
	}
	time.Sleep(20 * time.Millisecond)
	if st, _, _ := sup.Attach(ids[0], 0); st.State != "stopped" {
		t.Fatalf("stopped unit restarted into %s", st.State)
	}
	// Stop the whole deployment: registry fully drained.
	if err := sup.StopDeployment(ctxT(t, 5*time.Second), "web"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry = %d entries after deployment stop, want 0", reg.Len())
	}
}

func TestRollingUpgrade(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil), testBox("b", nil))
	d, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul\nversion v1\n")
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 2); err != nil {
		t.Fatal(err)
	}
	d2, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,WSTime\nversion v2\n")
	if err := sup.Upgrade(ctxT(t, 10*time.Second), d2); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, _, _ := sup.Attach(id, 0)
		if st.State != "serving" || st.Generation != 1 {
			t.Fatalf("unit %s after upgrade: state=%s gen=%d", id, st.State, st.Generation)
		}
	}
	// New descriptor took effect: each unit now publishes two components.
	if reg.Len() != 4 {
		t.Fatalf("registry = %d entries after upgrade, want 4", reg.Len())
	}
	var version string
	for _, dep := range sup.State().Deployments {
		if dep.Name == "web" {
			version = dep.Version
		}
	}
	if version != "v2" {
		t.Fatalf("deployment version %q, want v2", version)
	}
}

// TestUpgradeReconcilesReplicas: the upgrade descriptor's replica count
// is authoritative — rolling to a smaller count stops the surplus
// units, rolling back up spawns fresh ones under the new descriptor.
func TestUpgradeReconcilesReplicas(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil), testBox("b", nil))
	d, _ := ParseDescriptor("deploy web\nreplicas 3\ncomponent MatMul\nversion v1\n")
	if _, err := sup.Deploy(d); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 3); err != nil {
		t.Fatal(err)
	}
	serving := func() int {
		n := 0
		for _, dep := range sup.State().Deployments {
			for _, u := range dep.Units {
				if u.State == "serving" {
					n++
				}
			}
		}
		return n
	}
	down, _ := ParseDescriptor("deploy web\nreplicas 1\ncomponent MatMul\nversion v2\n")
	if err := sup.Upgrade(ctxT(t, 10*time.Second), down); err != nil {
		t.Fatal(err)
	}
	if got := serving(); got != 1 {
		t.Fatalf("serving units after scale-down upgrade = %d, want 1", got)
	}
	if reg.Len() != 1 {
		t.Fatalf("registry = %d entries after scale-down, want 1", reg.Len())
	}
	up, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,WSTime\nversion v3\n")
	if err := sup.Upgrade(ctxT(t, 10*time.Second), up); err != nil {
		t.Fatal(err)
	}
	if got := serving(); got != 2 {
		t.Fatalf("serving units after scale-up upgrade = %d, want 2", got)
	}
	// Both live units run the v3 component set: two components each.
	if reg.Len() != 4 {
		t.Fatalf("registry = %d entries after scale-up, want 4", reg.Len())
	}
}

// TestDrainLiveMigratesState: draining a box spawns a replacement unit
// elsewhere, live-migrates stateful components that do not collide (the
// dynamically deployed counter keeps its total), skips baseline
// components that exist on every replica (ErrMigrateCollision), and
// stops the old unit gracefully.
func TestDrainLiveMigratesState(t *testing.T) {
	reg := registry.New()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
		testBox("a", nil), testBox("b", nil))
	d, _ := ParseDescriptor("deploy web\ncomponent MatMul,FleetCounter\n")
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	old := ids[0]
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 1); err != nil {
		t.Fatal(err)
	}
	st, _, _ := sup.Attach(old, 0)
	if st.Box != "a" {
		t.Fatalf("unit on %s, want a (name-ordered tie break)", st.Box)
	}

	// Accumulate state: bump the baseline counter and deploy a second,
	// uniquely named counter (the one that must migrate).
	sup.mu.Lock()
	u := sup.units[old]
	sup.mu.Unlock()
	u.mu.Lock()
	c := u.node.Container()
	u.mu.Unlock()
	ctx := ctxT(t, 5*time.Second)
	if _, err := c.Invoke(ctx, "fleetcounter", "inc", wire.Args("by", int64(3))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Deploy(CounterClass, "counter-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(ctx, "counter-7", "inc", wire.Args("by", int64(7))); err != nil {
		t.Fatal(err)
	}

	if err := sup.Drain(ctxT(t, 10*time.Second), "a"); err != nil {
		t.Fatal(err)
	}
	// The old unit is stopped; a replacement serves on box b.
	if st, _, _ := sup.Attach(old, 0); st.State != "stopped" {
		t.Fatalf("drained unit state %s, want stopped", st.State)
	}
	var repl UnitStatus
	for _, dep := range sup.State().Deployments {
		for _, ust := range dep.Units {
			if ust.ID != old && ust.State == "serving" {
				repl = ust
			}
		}
	}
	if repl.ID == "" || repl.Box != "b" {
		t.Fatalf("no serving replacement on b: %+v", repl)
	}
	sup.mu.Lock()
	ru := sup.units[repl.ID]
	sup.mu.Unlock()
	ru.mu.Lock()
	rc := ru.node.Container()
	ru.mu.Unlock()
	// The unique counter migrated with its state.
	out, err := rc.Invoke(ctx, "counter-7", "total", nil)
	if err != nil {
		t.Fatalf("migrated counter gone: %v", err)
	}
	if total, _ := wire.GetArg(out, "total"); total.(int64) != 7 {
		t.Fatalf("migrated total = %v, want 7", total)
	}
	// The baseline counter collided and was skipped: the replacement's
	// own fresh instance remains untouched.
	out, err = rc.Invoke(ctx, "fleetcounter", "total", nil)
	if err != nil {
		t.Fatal(err)
	}
	if total, _ := wire.GetArg(out, "total"); total.(int64) != 0 {
		t.Fatalf("baseline total = %v, want 0 (collision skip)", total)
	}
	evs, _ := sup.Log().Since(0)
	var migrated, skipped bool
	for _, ev := range evs {
		if ev.Kind == EvMigrate {
			migrated = migrated || strings.Contains(ev.Detail, "counter-7 ->")
			skipped = skipped || strings.Contains(ev.Detail, "skipped")
		}
	}
	if !migrated || !skipped {
		t.Fatalf("migrate events incomplete: migrated=%v skipped=%v", migrated, skipped)
	}
	// The drained box accepts no further placements.
	d2, _ := ParseDescriptor("deploy web2\ncomponent MatMul\n")
	ids2, err := sup.Deploy(d2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web2", 1); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := sup.Attach(ids2[0], 0); st.Box != "b" {
		t.Fatalf("post-drain placement on %s, want b", st.Box)
	}
}

// TestDVMAutoEnroll: serving units join the DVM, crashes re-enroll after
// recovery, graceful stops withdraw.
func TestDVMAutoEnroll(t *testing.T) {
	reg := registry.New()
	vm := dvm.New("fleet-dvm", dvm.NewFullSync(simnet.New(simnet.LAN)))
	svc := events.New()
	sub := svc.Subscribe("fleet.crash", 16)
	sup := newTestSup(t, Config{
		Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg}),
		DVM:      vm,
		Events:   svc,
	}, testBox("a", nil))
	d, _ := ParseDescriptor("deploy web\ncomponent MatMul\n" + fastRestart)
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	unit := ids[0]
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := vm.Node(unit); !ok {
		t.Fatalf("unit %s not enrolled in DVM; members %v", unit, vm.Nodes())
	}
	if err := sup.Kill(unit); err != nil {
		t.Fatal(err)
	}
	pollUnit(t, sup, unit, "recovery", func(st UnitStatus) bool {
		return st.State == "serving" && st.Restarts >= 1
	})
	if _, ok := vm.Node(unit); !ok {
		t.Fatal("recovered unit not re-enrolled in DVM")
	}
	// The crash was bridged onto the general event manager.
	select {
	case ev := <-sub.C:
		if ev.Topic != "fleet.crash" {
			t.Fatalf("bridged topic %s", ev.Topic)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no fleet.crash event bridged")
	}
	if err := sup.StopUnit(ctxT(t, 5*time.Second), unit); err != nil {
		t.Fatal(err)
	}
	if _, ok := vm.Node(unit); ok {
		t.Fatal("stopped unit still enrolled in DVM")
	}
}

// unitEvents counts the logged events of each kind about one unit.
func unitEvents(sup *Supervisor, id string) map[string]int {
	evs, _ := sup.Log().Since(0)
	n := map[string]int{}
	for _, ev := range evs {
		if ev.Unit == id {
			n[ev.Kind]++
		}
	}
	return n
}

// deployOne deploys a one-replica MatMul deployment under a sim
// launcher and returns its unit.
func deployOne(t *testing.T, sim *SimLauncherConfig, cfg Config, restart string) (*Supervisor, string) {
	t.Helper()
	cfg.Launcher = NewSimLauncher(sim)
	sup := newTestSup(t, cfg, testBox("a", nil))
	d, err := ParseDescriptor("deploy web\ncomponent MatMul\n" + restart)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	return sup, ids[0]
}

// TestStopDuringRestartBackoff: a stop that lands while the unit waits
// out a restart backoff acts at once instead of after the backoff.
func TestStopDuringRestartBackoff(t *testing.T) {
	sup, id := deployOne(t, &SimLauncherConfig{Registry: registry.New(), FailFirst: 1 << 30},
		Config{Seed: 7}, "restart backoff=1h max=1h limit=8\n")
	pollUnit(t, sup, id, "restarting", func(st UnitStatus) bool { return st.State == "restarting" })
	start := time.Now()
	if err := sup.StopUnit(ctxT(t, 2*time.Second), id); err != nil {
		t.Fatalf("StopUnit during backoff: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("StopUnit took %s, want under 1s", el)
	}
	if st, _, _ := sup.Attach(id, 0); st.State != "stopped" {
		t.Fatalf("state %s after stop, want stopped", st.State)
	}
	if n := unitEvents(sup, id); n[EvSpawn] != 1 || n[EvStop] != 1 {
		t.Fatalf("events %v, want one spawn and one stop", n)
	}
}

// TestStopDuringStarting: a stop that lands while the launcher is still
// running lets the launch finish, then shuts the node down gracefully,
// so its registrations are released, and logs one stop before StopUnit
// returns.
func TestStopDuringStarting(t *testing.T) {
	for i := 0; i < 10; i++ {
		reg := registry.New()
		sup, id := deployOne(t, &SimLauncherConfig{Registry: reg, SpawnDelay: 20 * time.Millisecond},
			Config{}, fastRestart)
		if err := sup.StopUnit(ctxT(t, 5*time.Second), id); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if st, _, _ := sup.Attach(id, 0); st.State != "stopped" {
			t.Fatalf("iter %d: state %s, want stopped", i, st.State)
		}
		if reg.Len() != 0 {
			t.Fatalf("iter %d: registry holds %d entries after a graceful stop", i, reg.Len())
		}
		if n := unitEvents(sup, id)[EvStop]; n != 1 {
			t.Fatalf("iter %d: %d stop events, want 1", i, n)
		}
		sup.Close()
	}
}

// TestUnitTransitions covers the owner's remaining stop and deadline
// paths, one row per path.
func TestUnitTransitions(t *testing.T) {
	serving := func(t *testing.T, sup *Supervisor) {
		t.Helper()
		if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name         string
		iters        int
		spawnDelay   time.Duration
		spawnTimeout time.Duration
		restart      string
		drive        func(t *testing.T, sup *Supervisor, id string)
	}{{
		name: "spawn deadline is a crash", iters: 1,
		spawnDelay: time.Hour, spawnTimeout: 20 * time.Millisecond,
		restart: "restart backoff=1ms max=2ms limit=2\n",
		drive: func(t *testing.T, sup *Supervisor, id string) {
			st := pollUnit(t, sup, id, "failed", func(st UnitStatus) bool { return st.State == "failed" })
			if st.Consecutive != 2 {
				t.Fatalf("consecutive = %d, want 2", st.Consecutive)
			}
			if n := unitEvents(sup, id); n[EvCrash] != 2 || n[EvFail] != 1 {
				t.Fatalf("events %v, want two crashes and one fail", n)
			}
		},
	}, {
		name: "stop on a terminal unit", iters: 1, restart: fastRestart,
		drive: func(t *testing.T, sup *Supervisor, id string) {
			serving(t, sup)
			for i := 0; i < 3; i++ {
				if err := sup.StopUnit(ctxT(t, 5*time.Second), id); err != nil {
					t.Fatalf("stop %d: %v", i, err)
				}
			}
			if n := unitEvents(sup, id)[EvStop]; n != 1 {
				t.Fatalf("%d stop events, want 1", n)
			}
		},
	}, {
		name: "kill racing stop", iters: 20, restart: fastRestart,
		drive: func(t *testing.T, sup *Supervisor, id string) {
			serving(t, sup)
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				_ = sup.Kill(id)
			}()
			if err := sup.StopUnit(ctxT(t, 5*time.Second), id); err != nil {
				t.Fatal(err)
			}
			<-killed
			if st, _, _ := sup.Attach(id, 0); st.State != "stopped" {
				t.Fatalf("state %s, want stopped", st.State)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < tc.iters; i++ {
				sup, id := deployOne(t, &SimLauncherConfig{Registry: registry.New(), SpawnDelay: tc.spawnDelay},
					Config{SpawnTimeout: tc.spawnTimeout}, tc.restart)
				tc.drive(t, sup, id)
				sup.Close()
			}
		})
	}
}

// TestCloseLeavesNoGoroutines: after Close, nothing the supervisor
// started is left running — no owner, no per-attempt exit waiter, no
// await wake-up.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	clock.Coarse() // the process-global ticker is not the fleet's
	reg := registry.New()
	base := runtime.NumGoroutine()
	sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})}, testBox("a", nil))
	d, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul\n" + fastRestart)
	ids, err := sup.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 2); err != nil {
		t.Fatal(err)
	}
	if err := sup.Kill(ids[0]); err != nil {
		t.Fatal(err)
	}
	pollUnit(t, sup, ids[0], "recovery", func(st UnitStatus) bool { return st.State == "serving" && st.Restarts >= 1 })
	d2, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,WSTime\n" + fastRestart)
	if err := sup.Upgrade(ctxT(t, 5*time.Second), d2); err != nil {
		t.Fatal(err)
	}
	sup.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
