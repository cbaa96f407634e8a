package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"harness2/internal/container"
	"harness2/internal/dvm"
	"harness2/internal/events"
	"harness2/internal/resilience"
	"harness2/internal/runnerbox"
	"harness2/internal/telemetry"
)

// UnitState is the supervisor's view of one node's lifecycle.
type UnitState int

// Unit lifecycle: Starting (spawn in flight) → Serving; crashes move
// through Crashed → Restarting → Starting; graceful paths end in Stopped
// and exhausted restart budgets in Failed.
const (
	Starting UnitState = iota
	Serving
	Crashed
	Restarting
	Stopped
	Failed
)

// String names the state.
func (s UnitState) String() string {
	switch s {
	case Starting:
		return "starting"
	case Serving:
		return "serving"
	case Crashed:
		return "crashed"
	case Restarting:
		return "restarting"
	case Stopped:
		return "stopped"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// BoxInfo describes one enrolled runner box: the resource abstraction
// layer enriched with the inventory attributes target descriptors match
// against (Dearle et al.'s resource descriptions).
type BoxInfo struct {
	Name    string
	Backend string
	Slots   int
	Labels  map[string]string
	// Box is the live runner box jobs are submitted to.
	Box *runnerbox.Box
}

// registrar is the command-installation surface every shipped runnerbox
// backend provides (they all embed LocalBackend).
type registrar interface {
	Register(name string, cmd runnerbox.Command)
}

// UnitRef hands a launcher the identity and registration parameters of
// the unit it is instantiating.
type UnitRef struct {
	ID         string
	Deployment string
	Box        string
	Generation int
}

// UnitNode is a launched unit as the supervisor sees it: advertised
// access points, the hosted container (for drain/live-migrate; may be
// nil for virtual launchers), and a shutdown switch. Shutdown(true) is
// the graceful path — deregister from every registry, release leases —
// while Shutdown(false) models a crash cleanup: listeners close but
// registrations are abandoned to dangle until their leases expire.
type UnitNode interface {
	Endpoints() map[string]string
	Container() *container.Container
	Shutdown(graceful bool) error
}

// Launcher instantiates the node a unit supervises. It runs inside the
// unit's runner-box job: ctx is the job context and is cancelled when
// the job is killed. Launch returns once the node is serving (components
// deployed, registrations published).
type Launcher func(ctx context.Context, u UnitRef, d Descriptor) (UnitNode, error)

// Config parameterises a Supervisor.
type Config struct {
	// Name identifies the daemon (event source, telemetry labels).
	Name string
	// Launcher instantiates units; required.
	Launcher Launcher
	// DVM, when non-nil, auto-enrolls every serving unit's container as a
	// DVM member and withdraws it on crash or stop.
	DVM *dvm.DVM
	// Events, when non-nil, receives every log event on "fleet.<kind>".
	Events *events.Service
	// Telemetry selects the metrics registry; nil falls back to the
	// process default.
	Telemetry *telemetry.Registry
	// SpawnTimeout bounds one launch attempt (default 30s).
	SpawnTimeout time.Duration
	// LogCap bounds the event log (default DefaultLogCap).
	LogCap int
	// Seed fixes the restart-jitter RNG for deterministic tests.
	Seed int64
}

// Supervisor is the per-box deployment daemon: it owns the runner-box
// inventory, places target descriptors, supervises the spawned units,
// and writes the canonical event log.
type Supervisor struct {
	cfg Config
	log *Log

	met struct {
		boxes      *telemetry.Gauge
		units      *telemetry.GaugeVec
		deploys    *telemetry.Counter
		spawns     *telemetry.Counter
		crashes    *telemetry.Counter
		restarts   *telemetry.Counter
		migrations *telemetry.Counter
		spawnNs    *telemetry.Histogram
		recoveryNs *telemetry.Histogram
	}

	mu          sync.Mutex
	rng         *rand.Rand
	boxes       map[string]*boxState
	deployments map[string]*deployment
	units       map[string]*unit
	seq         int
	closed      bool
	wg          sync.WaitGroup
	// changed is broadcast on every unit state change (see await).
	changed *sync.Cond
}

type boxState struct {
	info     BoxInfo
	draining bool
	units    map[string]*unit
}

type deployment struct {
	name string
	desc Descriptor
	// units in placement order; stopped units are retained for history.
	units []*unit
}

// unit is one supervised node. Its lifecycle is written only by its
// owner goroutine (run); everyone else sends the owner a unitCmd.
type unit struct {
	id         string
	deployment string
	box        *boxState
	cmds       chan unitCmd
	done       chan struct{} // closed once the unit is terminal

	mu          sync.Mutex
	state       UnitState
	gen         int
	jobID       string
	node        UnitNode
	endpoints   map[string]string
	restarts    int
	consecutive int
	lastErr     string
	since       time.Time
}

// unitCmd asks a unit's owner to stop the unit, or with cycle to
// relaunch it under its deployment's current descriptor. The owner
// closes ack once it has acted.
type unitCmd struct {
	cycle bool
	ack   chan struct{}
}

// New creates a Supervisor. The Launcher is required.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Launcher == nil {
		return nil, fmt.Errorf("fleet: Config.Launcher is required")
	}
	if cfg.Name == "" {
		cfg.Name = "hfleet"
	}
	if cfg.SpawnTimeout <= 0 {
		cfg.SpawnTimeout = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Supervisor{
		cfg:         cfg,
		log:         NewLog(cfg.LogCap),
		rng:         rand.New(rand.NewSource(seed)),
		boxes:       make(map[string]*boxState),
		deployments: make(map[string]*deployment),
		units:       make(map[string]*unit),
	}
	s.changed = sync.NewCond(&s.mu)
	if cfg.Events != nil {
		s.log.Bridge(cfg.Events, cfg.Name)
	}
	tel := telemetry.Or(cfg.Telemetry)
	tel.Help("harness_fleet_boxes", "enrolled runner boxes")
	tel.Help("harness_fleet_units", "supervised units by state")
	tel.Help("harness_fleet_deploys_total", "accepted deploy descriptors")
	tel.Help("harness_fleet_spawns_total", "unit spawn attempts")
	tel.Help("harness_fleet_crashes_total", "unit crashes detected")
	tel.Help("harness_fleet_restarts_total", "automatic restarts")
	tel.Help("harness_fleet_migrations_total", "components live-migrated by drains")
	tel.Help("harness_fleet_spawn_ns", "spawn-to-serving latency")
	tel.Help("harness_fleet_recovery_ns", "crash-to-serving recovery latency")
	fixed := []string{"daemon", cfg.Name}
	s.met.boxes = tel.Gauge("harness_fleet_boxes", fixed...)
	s.met.units = tel.GaugeVec("harness_fleet_units", "state", fixed...)
	s.met.deploys = tel.Counter("harness_fleet_deploys_total", fixed...)
	s.met.spawns = tel.Counter("harness_fleet_spawns_total", fixed...)
	s.met.crashes = tel.Counter("harness_fleet_crashes_total", fixed...)
	s.met.restarts = tel.Counter("harness_fleet_restarts_total", fixed...)
	s.met.migrations = tel.Counter("harness_fleet_migrations_total", fixed...)
	s.met.spawnNs = tel.Histogram("harness_fleet_spawn_ns", fixed...)
	s.met.recoveryNs = tel.Histogram("harness_fleet_recovery_ns", fixed...)
	return s, nil
}

// Log returns the supervisor's event log.
func (s *Supervisor) Log() *Log { return s.log }

// Enroll adds a runner box to the inventory. The box's backend must
// support command registration (every shipped backend does).
func (s *Supervisor) Enroll(info BoxInfo) error {
	if info.Name == "" || info.Box == nil {
		return fmt.Errorf("fleet: enrollment needs a name and a live box")
	}
	if _, ok := info.Box.Backend().(registrar); !ok {
		return fmt.Errorf("fleet: backend %q cannot register commands", info.Box.Backend().Name())
	}
	if info.Backend == "" {
		info.Backend = info.Box.Backend().Name()
	}
	if info.Slots == 0 {
		info.Slots = info.Box.Backend().Slots()
	}
	s.mu.Lock()
	if _, dup := s.boxes[info.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("fleet: box %q already enrolled", info.Name)
	}
	s.boxes[info.Name] = &boxState{info: info, units: make(map[string]*unit)}
	n := len(s.boxes)
	s.mu.Unlock()
	s.met.boxes.Set(int64(n))
	s.log.Append(Event{Kind: EvEnroll, Box: info.Name,
		Detail: fmt.Sprintf("backend=%s slots=%d", info.Backend, info.Slots)})
	return nil
}

// matchBoxes returns non-draining boxes satisfying every constraint,
// least-loaded first (ties by name for determinism).
func (s *Supervisor) matchBoxesLocked(cs []Constraint) []*boxState {
	var out []*boxState
	for _, b := range s.boxes {
		if b.draining {
			continue
		}
		ok := true
		for _, c := range cs {
			if !c.Matches(b.info) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].units) != len(out[j].units) {
			return len(out[i].units) < len(out[j].units)
		}
		return out[i].info.Name < out[j].info.Name
	})
	return out
}

// Deploy accepts a target descriptor: constraints are matched against
// the box inventory, replicas placed least-loaded-first, and one
// supervised unit spawned per replica. It returns the assigned unit IDs
// without waiting for them to serve (see WaitServing).
func (s *Supervisor) Deploy(d Descriptor) ([]string, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d = d.normalized()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: supervisor closed")
	}
	if _, dup := s.deployments[d.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: deployment %q already exists", d.Name)
	}
	if len(s.matchBoxesLocked(d.Constraints)) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: no enrolled box satisfies %v", d.Constraints)
	}
	dep := &deployment{name: d.Name, desc: d}
	s.deployments[d.Name] = dep
	units := make([]*unit, d.Replicas)
	ids := make([]string, d.Replicas)
	for i := range units {
		units[i] = s.placeLocked(dep)
		ids[i] = units[i].id
	}
	s.mu.Unlock()

	s.met.deploys.Inc()
	s.log.Append(Event{Kind: EvDeploy, Deployment: d.Name,
		Detail: fmt.Sprintf("replicas=%d components=%v constraints=%v", d.Replicas, d.Components, d.Constraints)})
	for _, u := range units {
		s.start(u)
	}
	return ids, nil
}

// placeLocked creates a Starting unit of dep on the least-loaded box its
// constraints admit, re-ranked per call so replicas spread by live load.
// It returns nil when the supervisor is closed or no box is eligible.
// Call start once s.mu is released.
func (s *Supervisor) placeLocked(dep *deployment) *unit {
	boxes := s.matchBoxesLocked(dep.desc.Constraints)
	if s.closed || len(boxes) == 0 {
		return nil
	}
	s.seq++
	u := &unit{
		id:         fmt.Sprintf("%s-%d", dep.name, s.seq),
		deployment: dep.name,
		box:        boxes[0],
		cmds:       make(chan unitCmd),
		done:       make(chan struct{}),
		state:      Starting,
		since:      time.Now(),
	}
	u.box.units[u.id] = u
	s.units[u.id] = u
	dep.units = append(dep.units, u)
	return u
}

// start hands a placed unit to its owner goroutine.
func (s *Supervisor) start(u *unit) {
	s.met.units.With(Starting.String()).Inc()
	s.wg.Add(1)
	go s.run(u)
}

// deploymentDesc snapshots the current descriptor of a deployment.
func (s *Supervisor) deploymentDesc(name string) (Descriptor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep, ok := s.deployments[name]
	if !ok {
		return Descriptor{}, false
	}
	return dep.desc, true
}

// setState publishes a unit's state, maintaining the per-state gauge and
// waking await. Only the unit's owner calls it.
func (s *Supervisor) setState(u *unit, to UnitState) {
	u.mu.Lock()
	from := u.state
	u.state = to
	u.since = time.Now()
	u.mu.Unlock()
	if from != to {
		s.met.units.With(from.String()).Dec()
		s.met.units.With(to.String()).Inc()
	}
	s.mu.Lock()
	s.changed.Broadcast()
	s.mu.Unlock()
}

type launchResult struct {
	node UnitNode
	err  error
}

// attempt is one launch of a unit's job as its owner watches it. The
// zero attempt is "no live job": every channel is nil.
type attempt struct {
	start    time.Time
	stop     chan struct{}     // closed to shut the job down gracefully
	ready    chan launchResult // the launcher's outcome; nil once read
	deadline <-chan time.Time  // the spawn deadline; nil once met or fired
	exit     chan error        // the job's exit, sent by its waiter
	timedOut bool
}

// launch submits the unit's job to its box. The job runs the launcher,
// reports on ready, then holds the node until it is killed (crash
// semantics) or stop closes (graceful shutdown); one waiter goroutine
// per attempt reports its exit.
func (s *Supervisor) launch(u *unit) attempt {
	d, _ := s.deploymentDesc(u.deployment)
	ref := UnitRef{ID: u.id, Deployment: u.deployment, Box: u.box.info.Name, Generation: u.gen}
	a := attempt{start: time.Now(), stop: make(chan struct{}),
		ready: make(chan launchResult, 1), exit: make(chan error, 1)}
	stop, ready, exit := a.stop, a.ready, a.exit
	cmd := func(ctx context.Context, args []string) error {
		node, err := s.cfg.Launcher(ctx, ref, d)
		ready <- launchResult{node: node, err: err}
		if err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			// Killed: crash semantics. Listeners die with the process
			// model; registrations are abandoned to dangle until their
			// leases expire (the restart recovers them).
			_ = node.Shutdown(false)
			return ctx.Err()
		case <-stop:
			// Graceful: deregister everywhere, release leases.
			return node.Shutdown(true)
		}
	}
	box := u.box.info.Box
	box.Backend().(registrar).Register(u.id, cmd)
	jobID, cost, err := box.Run(u.id, nil)
	if err != nil {
		a.ready = nil
		exit <- err
		return a
	}
	u.mu.Lock()
	u.jobID = jobID
	u.mu.Unlock()
	a.deadline = time.After(s.cfg.SpawnTimeout)
	go func() { exit <- box.Wait(jobID) }()
	s.met.spawns.Inc()
	s.note(u, Event{Kind: EvSpawn, Detail: fmt.Sprintf("job=%s gen=%d spawn-cost=%s", jobID, u.gen, cost)})
	return a
}

// run is the unit's owner and the only writer of its lifecycle. Each
// turn blocks in one select over the events the unit's state can see; a
// nil channel is an event the state cannot see.
//
//	state      | launch result | spawn deadline | job exit | backoff timer | command
//	-----------+---------------+----------------+----------+---------------+--------
//	Starting   | ok: Serving   | kill the job   | crash    |               | pend
//	Serving    |               |                | crash    |               | pend
//	Restarting |               |                |          | Starting      | act
//
// crash: Crashed, then Failed once the restart budget is spent, else
// Restarting with a full-jitter backoff. A failed launch ends its job, so
// it is seen as the exit. pend: close the attempt's graceful-stop
// channel; the command acts once the job has exited, in place of the
// crash. act: Stopped, or for a cycle gen++ and Starting, then the acks.
// A stop joining a pending cycle turns it into a stop. Stopped and Failed
// end run through finish.
func (s *Supervisor) run(u *unit) {
	defer s.wg.Done()
	var (
		a         = s.launch(u)
		backoff   <-chan time.Time
		delay     time.Duration
		acks      []chan struct{} // callers of the pending command
		stop      bool            // the pending command is a full stop
		crashedAt time.Time
	)
	for {
		select {
		case r := <-a.ready:
			a.ready, a.deadline = nil, nil
			if r.err != nil || acks != nil {
				break // the job is exiting on its own, or was asked to
			}
			u.mu.Lock()
			u.node, u.endpoints = r.node, r.node.Endpoints()
			u.consecutive, u.lastErr = 0, ""
			u.mu.Unlock()
			s.enrollDVM(r.node)
			s.met.spawnNs.ObserveDuration(time.Since(a.start))
			if !crashedAt.IsZero() {
				s.met.recoveryNs.ObserveDuration(time.Since(crashedAt))
				crashedAt = time.Time{}
			}
			s.note(u, Event{Kind: EvServing, Detail: endpointsDetail(u.endpoints), Elapsed: time.Since(a.start)})
			s.setState(u, Serving)
		case <-a.deadline:
			a.deadline, a.timedOut = nil, true
			_ = u.box.info.Box.Kill(u.jobID)
		case err := <-a.exit:
			s.withdrawDVM(u.id)
			u.mu.Lock()
			u.node = nil
			u.mu.Unlock()
			if a.timedOut {
				err = fmt.Errorf("fleet: unit %s spawn timed out after %s", u.id, s.cfg.SpawnTimeout)
			}
			a = attempt{}
			if acks != nil {
				break
			}
			ev := Event{Kind: EvCrash, Err: errString(err)}
			if u.state == Starting {
				ev.Detail = "spawn failed"
			}
			crashedAt = time.Now()
			s.met.crashes.Inc()
			u.mu.Lock()
			u.consecutive++
			u.lastErr = ev.Err
			n := u.consecutive
			u.mu.Unlock()
			s.note(u, ev)
			s.setState(u, Crashed)
			d, _ := s.deploymentDesc(u.deployment)
			if n >= d.Restart.Limit {
				s.finish(u, Failed, Event{Kind: EvFail, Detail: fmt.Sprintf("restart limit %d hit", d.Restart.Limit)}, nil)
				return
			}
			s.mu.Lock()
			delay = resilience.FullJitter(s.rng, d.Restart.Backoff, d.Restart.Max, n-1)
			s.mu.Unlock()
			backoff = time.After(delay)
			s.setState(u, Restarting)
		case <-backoff:
			backoff = nil
			u.mu.Lock()
			u.restarts++
			n := u.consecutive
			u.mu.Unlock()
			s.met.restarts.Inc()
			s.note(u, Event{Kind: EvRestart, Detail: fmt.Sprintf("attempt %d after %s", n, delay)})
			s.setState(u, Starting)
			a = s.launch(u)
		case c := <-u.cmds:
			acks = append(acks, c.ack)
			stop = stop || !c.cycle
			if a.stop != nil {
				close(a.stop)
				a.stop = nil
			}
		}
		if acks == nil || a.exit != nil {
			continue
		}
		// A command is pending and no job is live: act on it.
		backoff = nil
		if stop {
			s.finish(u, Stopped, Event{Kind: EvStop}, acks)
			return
		}
		s.note(u, Event{Kind: EvStop, Detail: "cycling"})
		u.mu.Lock()
		u.gen++
		u.mu.Unlock()
		s.setState(u, Starting)
		a = s.launch(u)
		for _, ack := range acks {
			close(ack)
		}
		acks = nil
	}
}

// finish is the one terminal path, in a fixed order: log the event,
// publish the state, detach the unit from its box's live set (it stays
// in the deployment history and the unit index), then release everyone
// waiting on it.
func (s *Supervisor) finish(u *unit, to UnitState, ev Event, acks []chan struct{}) {
	s.note(u, ev)
	s.setState(u, to)
	s.mu.Lock()
	delete(u.box.units, u.id)
	s.mu.Unlock()
	close(u.done)
	for _, ack := range acks {
		close(ack)
	}
}

// note logs an event about a unit.
func (s *Supervisor) note(u *unit, ev Event) {
	ev.Deployment, ev.Unit, ev.Box = u.deployment, u.id, u.box.info.Name
	s.log.Append(ev)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func endpointsDetail(eps map[string]string) string {
	if len(eps) == 0 {
		return ""
	}
	keys := make([]string, 0, len(eps))
	for k := range eps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, (k + "=" + eps[k])...)
	}
	return string(b)
}

// enrollDVM adds a serving unit's container to the DVM.
func (s *Supervisor) enrollDVM(node UnitNode) {
	if s.cfg.DVM == nil || node.Container() == nil {
		return
	}
	c := node.Container()
	_ = s.cfg.DVM.RemoveNode(c.Name()) // a restart replaces its old enrollment
	_ = s.cfg.DVM.AddNode(c)
}

// withdrawDVM removes a unit's container from the DVM by unit name.
func (s *Supervisor) withdrawDVM(name string) {
	if s.cfg.DVM == nil {
		return
	}
	_ = s.cfg.DVM.RemoveNode(name)
}

// await blocks until pred reports done or fails, or ctx ends. pred runs
// under s.mu and is re-evaluated after every unit state change.
func (s *Supervisor) await(ctx context.Context, pred func() (bool, error)) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.changed.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ok, err := pred(); ok || err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.changed.Wait()
	}
}

// WaitServing blocks until n units of the deployment are Serving, the
// context expires, or no progress is possible (every unit terminal).
func (s *Supervisor) WaitServing(ctx context.Context, deployment string, n int) error {
	err := s.await(ctx, func() (bool, error) {
		dep, ok := s.deployments[deployment]
		if !ok {
			return false, fmt.Errorf("fleet: no deployment %q", deployment)
		}
		serving, terminal := 0, 0
		for _, u := range dep.units {
			switch u.snapshotState() {
			case Serving:
				serving++
			case Stopped, Failed:
				terminal++
			}
		}
		if serving >= n {
			return true, nil
		}
		if terminal == len(dep.units) && len(dep.units) > 0 {
			return false, fmt.Errorf("fleet: deployment %q has no restartable units (%d terminal)", deployment, terminal)
		}
		return false, nil
	})
	if err != nil && err == ctx.Err() {
		return fmt.Errorf("fleet: waiting for %d/%s serving: %w", n, deployment, err)
	}
	return err
}

// waitUnitServing blocks until the unit is Serving; a terminal unit is
// an error.
func (s *Supervisor) waitUnitServing(ctx context.Context, u *unit) error {
	return s.await(ctx, func() (bool, error) {
		switch st := u.snapshotState(); st {
		case Serving:
			return true, nil
		case Stopped, Failed:
			return false, fmt.Errorf("unit %s terminal (%s)", u.id, st)
		}
		return false, nil
	})
}

func (u *unit) snapshotState() UnitState {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.state
}

// Kill terminates a unit's job abruptly — crash semantics: no
// deregistration, leases dangle, and the supervisor's crash detection
// restarts the unit with backoff. This is the chaos/operator kill switch
// E18 drives.
func (s *Supervisor) Kill(unitID string) error {
	s.mu.Lock()
	u, ok := s.units[unitID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no unit %q", unitID)
	}
	u.mu.Lock()
	jobID := u.jobID
	u.mu.Unlock()
	if jobID == "" {
		return fmt.Errorf("fleet: unit %q has no live job", unitID)
	}
	return u.box.info.Box.Kill(jobID)
}

// StopUnit shuts a unit down gracefully: the node deregisters from every
// registry (releasing its leases) and the supervisor marks it Stopped
// without restarting it.
func (s *Supervisor) StopUnit(ctx context.Context, unitID string) error {
	s.mu.Lock()
	u, ok := s.units[unitID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no unit %q", unitID)
	}
	return s.command(ctx, u, false)
}

// command sends the unit's owner a stop (with cycle, a relaunch) and
// waits for the owner to act; a terminal unit has nothing to do. If ctx
// ends first the job is killed so that it cannot linger.
func (s *Supervisor) command(ctx context.Context, u *unit, cycle bool) error {
	c := unitCmd{cycle: cycle, ack: make(chan struct{})}
	select {
	case u.cmds <- c:
	case <-u.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-c.ack:
		return nil
	case <-ctx.Done():
		u.mu.Lock()
		jobID := u.jobID
		u.mu.Unlock()
		_ = u.box.info.Box.Kill(jobID)
		return ctx.Err()
	}
}

// stopAll stops units concurrently and joins their errors.
func (s *Supervisor) stopAll(ctx context.Context, units []*unit) error {
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.command(ctx, u, false); err != nil {
				errs[i] = fmt.Errorf("%s: %w", u.id, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// StopDeployment gracefully stops every unit of a deployment.
func (s *Supervisor) StopDeployment(ctx context.Context, name string) error {
	s.mu.Lock()
	dep, ok := s.deployments[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("fleet: no deployment %q", name)
	}
	units := append([]*unit(nil), dep.units...)
	s.mu.Unlock()
	return s.stopAll(ctx, units)
}

// Upgrade performs a rolling upgrade of a deployment to the new
// descriptor: one unit at a time is stopped gracefully, relaunched with
// the new descriptor and a bumped generation, and confirmed Serving
// before the next unit cycles — at most one replica is down at any
// moment. The new descriptor's replica count is authoritative: after
// the roll, surplus units are stopped newest-first and a shortfall is
// filled by spawning fresh units under the new descriptor's placement.
func (s *Supervisor) Upgrade(ctx context.Context, d Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	d = d.normalized()
	s.mu.Lock()
	dep, ok := s.deployments[d.Name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("fleet: no deployment %q", d.Name)
	}
	dep.desc = d
	units := append([]*unit(nil), dep.units...)
	s.mu.Unlock()
	s.log.Append(Event{Kind: EvUpgrade, Deployment: d.Name,
		Detail: fmt.Sprintf("to version=%q components=%v", d.Version, d.Components)})
	for _, u := range units {
		if u.snapshotState() != Serving {
			continue
		}
		err := s.command(ctx, u, true)
		if err == nil {
			err = s.waitUnitServing(ctx, u)
		}
		if err != nil {
			return fmt.Errorf("fleet: upgrade %s: %w", u.id, err)
		}
		s.note(u, Event{Kind: EvUpgrade, Detail: fmt.Sprintf("gen=%d serving", u.status().Generation)})
	}
	return s.reconcileReplicas(ctx, dep, d)
}

// reconcileReplicas brings a deployment's live-unit count in line with
// its descriptor after a roll. Drain replacements can leave a
// deployment above its replica target, and an upgrade descriptor may
// raise or lower it; either way the descriptor wins.
func (s *Supervisor) reconcileReplicas(ctx context.Context, dep *deployment, d Descriptor) error {
	s.mu.Lock()
	var live, added []*unit
	for _, u := range dep.units {
		if st := u.snapshotState(); st != Stopped && st != Failed {
			live = append(live, u)
		}
	}
	surplus := live[min(len(live), d.Replicas):]
	for i := len(live); i < d.Replicas; i++ {
		u := s.placeLocked(dep)
		if u == nil {
			s.mu.Unlock()
			return fmt.Errorf("fleet: upgrade %s: no enrolled box satisfies %v", d.Name, d.Constraints)
		}
		added = append(added, u)
	}
	s.mu.Unlock()
	for _, u := range surplus {
		s.note(u, Event{Kind: EvUpgrade, Detail: "scale-down"})
	}
	if err := s.stopAll(ctx, surplus); err != nil {
		return fmt.Errorf("fleet: upgrade scale-down: %w", err)
	}
	for _, u := range added {
		s.note(u, Event{Kind: EvUpgrade, Detail: "scale-up"})
		s.start(u)
	}
	for _, u := range added {
		if err := s.waitUnitServing(ctx, u); err != nil {
			return fmt.Errorf("fleet: upgrade scale-up %s: %w", u.id, err)
		}
	}
	return nil
}

// Drain evacuates a box: it stops accepting placements, then relocates
// every serving unit — a replacement unit is spawned on another eligible
// box, confirmed Serving, stateful components are live-migrated from the
// old node's container to the replacement's (collisions are skipped with
// a logged ErrMigrateCollision — baseline components already exist on
// every replica), and only then is the old unit stopped gracefully.
func (s *Supervisor) Drain(ctx context.Context, boxName string) error {
	s.mu.Lock()
	box, ok := s.boxes[boxName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("fleet: no box %q", boxName)
	}
	box.draining = true
	victims := make([]*unit, 0, len(box.units))
	for _, u := range box.units {
		victims = append(victims, u)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	s.mu.Unlock()
	s.log.Append(Event{Kind: EvDrain, Box: boxName, Detail: fmt.Sprintf("%d units to relocate", len(victims))})

	var errs []error
	for _, u := range victims {
		if u.snapshotState() != Serving {
			continue
		}
		if err := s.relocate(ctx, u); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", u.id, err))
		}
	}
	return errors.Join(errs...)
}

// relocate moves one unit off its (draining) box.
func (s *Supervisor) relocate(ctx context.Context, old *unit) error {
	s.mu.Lock()
	repl := s.placeLocked(s.deployments[old.deployment])
	s.mu.Unlock()
	if repl == nil {
		return fmt.Errorf("no eligible box to relocate to")
	}
	s.start(repl)
	if err := s.waitUnitServing(ctx, repl); err != nil {
		return fmt.Errorf("replacement %s: %w", repl.id, err)
	}

	// Live-migrate stateful components old → replacement.
	old.mu.Lock()
	oldNode := old.node
	old.mu.Unlock()
	repl.mu.Lock()
	newNode := repl.node
	repl.mu.Unlock()
	if oldNode != nil && newNode != nil && oldNode.Container() != nil && newNode.Container() != nil {
		src, dst := oldNode.Container(), newNode.Container()
		for _, inst := range src.Instances() {
			if _, stateful := inst.Component().(container.Stateful); !stateful {
				continue
			}
			err := container.Migrate(src, inst.ID, dst)
			switch {
			case err == nil:
				s.met.migrations.Inc()
				s.log.Append(Event{Kind: EvMigrate, Deployment: old.deployment,
					Unit: old.id, Box: old.box.info.Name,
					Detail: fmt.Sprintf("%s -> %s", inst.ID, repl.id)})
			case errors.Is(err, container.ErrMigrateCollision):
				// Baseline components exist on every replica; skip.
				s.log.Append(Event{Kind: EvMigrate, Deployment: old.deployment,
					Unit: old.id, Box: old.box.info.Name,
					Detail: fmt.Sprintf("%s skipped (exists at %s)", inst.ID, repl.id)})
			default:
				return fmt.Errorf("migrate %s: %w", inst.ID, err)
			}
		}
	}
	return s.command(ctx, old, false)
}

// UnitStatus is the control-plane view of one unit.
type UnitStatus struct {
	ID          string            `json:"id"`
	Deployment  string            `json:"deployment"`
	Box         string            `json:"box"`
	State       string            `json:"state"`
	Generation  int               `json:"generation"`
	Restarts    int               `json:"restarts"`
	Consecutive int               `json:"consecutive_crashes"`
	LastErr     string            `json:"last_err,omitempty"`
	Since       time.Time         `json:"since"`
	Endpoints   map[string]string `json:"endpoints,omitempty"`
}

// BoxStatus is the control-plane view of one enrolled box.
type BoxStatus struct {
	Name     string            `json:"name"`
	Backend  string            `json:"backend"`
	Slots    int               `json:"slots"`
	Labels   map[string]string `json:"labels,omitempty"`
	Draining bool              `json:"draining,omitempty"`
	Units    []string          `json:"units,omitempty"`
}

// DeploymentStatus is the control-plane view of one deployment.
type DeploymentStatus struct {
	Name       string       `json:"name"`
	Version    string       `json:"version,omitempty"`
	Replicas   int          `json:"replicas"`
	Components []string     `json:"components"`
	Units      []UnitStatus `json:"units"`
}

// FleetState is the full control-plane snapshot.
type FleetState struct {
	Daemon      string             `json:"daemon"`
	Boxes       []BoxStatus        `json:"boxes"`
	Deployments []DeploymentStatus `json:"deployments"`
	LogSeq      int64              `json:"log_seq"`
}

func (u *unit) status() UnitStatus {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := UnitStatus{
		ID:          u.id,
		Deployment:  u.deployment,
		Box:         u.box.info.Name,
		State:       u.state.String(),
		Generation:  u.gen,
		Restarts:    u.restarts,
		Consecutive: u.consecutive,
		LastErr:     u.lastErr,
		Since:       u.since,
	}
	if len(u.endpoints) > 0 && u.state == Serving {
		st.Endpoints = make(map[string]string, len(u.endpoints))
		for k, v := range u.endpoints {
			st.Endpoints[k] = v
		}
	}
	return st
}

// State snapshots the fleet.
func (s *Supervisor) State() FleetState {
	s.mu.Lock()
	st := FleetState{Daemon: s.cfg.Name, LogSeq: s.log.Seq()}
	boxNames := make([]string, 0, len(s.boxes))
	for n := range s.boxes {
		boxNames = append(boxNames, n)
	}
	sort.Strings(boxNames)
	for _, n := range boxNames {
		b := s.boxes[n]
		bs := BoxStatus{
			Name:     b.info.Name,
			Backend:  b.info.Backend,
			Slots:    b.info.Slots,
			Labels:   b.info.Labels,
			Draining: b.draining,
		}
		for id := range b.units {
			bs.Units = append(bs.Units, id)
		}
		sort.Strings(bs.Units)
		st.Boxes = append(st.Boxes, bs)
	}
	depNames := make([]string, 0, len(s.deployments))
	for n := range s.deployments {
		depNames = append(depNames, n)
	}
	sort.Strings(depNames)
	deps := make([]*deployment, 0, len(depNames))
	for _, n := range depNames {
		deps = append(deps, s.deployments[n])
	}
	s.mu.Unlock()
	for _, dep := range deps {
		ds := DeploymentStatus{
			Name:       dep.name,
			Version:    dep.desc.Version,
			Replicas:   dep.desc.Replicas,
			Components: dep.desc.Components,
		}
		for _, u := range dep.units {
			ds.Units = append(ds.Units, u.status())
		}
		st.Deployments = append(st.Deployments, ds)
	}
	return st
}

// Attach returns a unit's live status plus the event log tail for it —
// everything a client needs to (re)connect to a running node: current
// endpoints to dial and the history since its last-seen sequence number.
func (s *Supervisor) Attach(unitID string, since int64) (UnitStatus, []Event, error) {
	s.mu.Lock()
	u, ok := s.units[unitID]
	s.mu.Unlock()
	if !ok {
		return UnitStatus{}, nil, fmt.Errorf("fleet: no unit %q", unitID)
	}
	all, _ := s.log.Since(since)
	var evs []Event
	for _, ev := range all {
		if ev.Unit == unitID {
			evs = append(evs, ev)
		}
	}
	return u.status(), evs, nil
}

// Close stops every unit gracefully and waits for the owners to exit.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	units := make([]*unit, 0, len(s.units))
	for _, u := range s.units {
		units = append(units, u)
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.stopAll(ctx, units)
	s.wg.Wait()
	return nil
}
