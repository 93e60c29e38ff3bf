// Package mrpc is a configurable group RPC service: a from-scratch Go
// implementation of Hiltunen & Schlichting, "Constructing a Configurable
// Group RPC Service" (Univ. of Arizona TR 94-28 / ICDCS 1995).
//
// Instead of one RPC system per combination of semantics, mrpc composes a
// service from micro-protocols, each implementing a single semantic
// property — call synchrony, reliable communication, bounded termination,
// unique/atomic execution, FIFO/total ordering, k-of-n acceptance, reply
// collation, and orphan handling — linked by an event-driven framework
// into a composite protocol.
//
// # Quickstart
//
//	sys := mrpc.NewSystem(mrpc.SystemOptions{})
//	defer sys.Stop()
//
//	reg := mrpc.NewRegistry()
//	echo := reg.Register("echo", func(th *mrpc.Thread, args []byte) []byte {
//		return args
//	})
//	for id := mrpc.ProcID(1); id <= 3; id++ {
//		sys.AddServer(id, mrpc.ExactlyOnce(), func() mrpc.App { return reg })
//	}
//	client, _ := sys.AddClient(100, mrpc.ExactlyOnce())
//
//	reply, status, _ := client.Call(echo, []byte("hi"), sys.Group(1, 2, 3))
//	// status == mrpc.StatusOK, reply == []byte("hi")
//
// The full semantic space (198 legal configurations — the paper's count)
// is described by Config; presets for the common points are provided.
//
// # Live reconfiguration
//
// A running node (or a whole system) can be hot-swapped between legal
// configurations without restarting and without dropping in-flight calls:
//
//	// Upgrade the running group from exactly-once to total-order
//	// replicated-service semantics, concurrent callers and all.
//	if err := sys.Reconfigure(mrpc.ReplicatedService()); err != nil { ... }
//	// ... and back.
//	if err := sys.Reconfigure(mrpc.ExactlyOnce()); err != nil { ... }
//
// Transitions are validated first (config.PlanTransition): properties that
// act per call (acceptance, collation, unique execution, orphan handling,
// serial execution) swap live; properties that span a call's lifetime
// (call synchrony, reliability, deadlines, ordering) drain in-flight calls
// first; changing atomic execution live is rejected — restart the node.
// See DESIGN.md deviation D14.
package mrpc

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/config"
	"mrpc/internal/core"
	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/netsim"
	"mrpc/internal/proc"
	"mrpc/internal/stable"
	"mrpc/internal/stub"
	"mrpc/internal/trace"
	"mrpc/internal/transport"
)

// NewTraceLog returns an empty structured trace log for
// SystemOptions.Trace.
func NewTraceLog() *TraceLog { return trace.NewLog() }

// Re-exported identifier and message types.
type (
	// ProcID identifies a process (site).
	ProcID = msg.ProcID
	// OpID identifies a registered remote operation.
	OpID = msg.OpID
	// CallID identifies an asynchronous call for later collection.
	CallID = msg.CallID
	// Group identifies a server group by its members.
	Group = msg.Group
	// Status is the completion status of a call.
	Status = msg.Status
	// Thread is the killable token under which a procedure executes.
	Thread = proc.Thread
	// Registry dispatches operations on the server side.
	Registry = stub.Registry
	// Config selects one variant of every configurable property.
	Config = config.Config
	// CallMode selects synchronous or asynchronous call semantics.
	CallMode = config.CallSemantics
	// ExecMode selects the server execution property.
	ExecMode = config.ExecMode
	// OrderMode selects the ordering property.
	OrderMode = config.OrderMode
	// OrphanMode selects the orphan-handling property.
	OrphanMode = config.OrphanMode
	// Dissemination selects how group multicasts fan out (D17).
	Dissemination = config.Dissemination
	// CollateFunc folds one server reply into the accumulated result.
	CollateFunc = core.CollateFunc
	// Checkpointable is server state Atomic Execution can snapshot.
	Checkpointable = core.Checkpointable
	// DeltaCheckpointable additionally supports incremental checkpoints
	// (Config.AtomicDeltas).
	DeltaCheckpointable = core.DeltaCheckpointable
	// Transport is the communication substrate seam: the simulator
	// (internal/netsim) and the TCP transport (internal/nettcp) both
	// implement it (see internal/transport).
	Transport = transport.Transport
	// Link is one process's attachment point on a Transport.
	Link = transport.Endpoint
	// NetParams is the simulated network's fault and delay model.
	NetParams = netsim.Params
	// ReorderParams arms the simulator's bounded reorder storms (D19).
	ReorderParams = netsim.ReorderParams
	// LinkProfile is a per-directed-link adversarial profile — asymmetric
	// latency, spikes, bandwidth — installed via System.Sim (D19).
	LinkProfile = netsim.LinkProfile
	// NetStats are the transport counters (shared across substrates).
	NetStats = transport.Stats
	// TraceSink receives structured trace events (SystemOptions.Trace).
	TraceSink = trace.Sink
	// TraceEvent is one structured trace record.
	TraceEvent = trace.Event
	// TraceLog is the standard append-only TraceSink.
	TraceLog = trace.Log
	// Writer packs typed values into RPC argument bytes.
	Writer = stub.Writer
	// Reader unpacks RPC argument bytes.
	Reader = stub.Reader
)

// Call statuses.
const (
	StatusWaiting = msg.StatusWaiting
	StatusOK      = msg.StatusOK
	StatusTimeout = msg.StatusTimeout
	StatusAborted = msg.StatusAborted
)

// AcceptAll makes Acceptance wait for every functioning group member.
const AcceptAll = core.AcceptAll

// Re-exported configuration enums, so applications can assemble a Config
// from the public API alone.
const (
	CallSynchronous  = config.CallSynchronous
	CallAsynchronous = config.CallAsynchronous

	ExecConcurrent = config.ExecConcurrent
	ExecSerial     = config.ExecSerial
	ExecAtomic     = config.ExecAtomic

	OrderNone  = config.OrderNone
	OrderFIFO  = config.OrderFIFO
	OrderTotal = config.OrderTotal
	// OrderCausal is an extension beyond the paper's Figure 4.
	OrderCausal = config.OrderCausal

	OrphanIgnore            = config.OrphanIgnore
	OrphanAvoidInterference = config.OrphanAvoidInterference
	OrphanTerminate         = config.OrphanTerminate

	DissFlat = config.DissFlat
	DissTree = config.DissTree
)

// NewWriter returns an argument packer with the given capacity hint.
func NewWriter(capacity int) *Writer { return stub.NewWriter(capacity) }

// NewReader returns an argument unpacker over buf.
func NewReader(buf []byte) *Reader { return stub.NewReader(buf) }

// Configuration presets (see internal/config for the full space).
var (
	// AtLeastOnce is reliable synchronous group RPC without duplicate
	// suppression.
	AtLeastOnce = config.AtLeastOncePreset
	// ExactlyOnce adds unique execution.
	ExactlyOnce = config.ExactlyOncePreset
	// AtMostOnce adds atomic (checkpointed, serial) execution.
	AtMostOnce = config.AtMostOncePreset
	// ReadOne is the paper's §5 read-optimized configuration.
	ReadOne = config.ReadOne
	// ReplicatedService is the total-order, respond-all configuration.
	ReplicatedService = config.ReplicatedService
)

// NewRegistry returns an empty operation registry.
func NewRegistry() *Registry { return stub.NewRegistry() }

// NewGroup returns a normalized group of the given members.
func NewGroup(members ...ProcID) Group { return msg.NewGroup(members...) }

// App is the server-side user protocol: it executes operations. A stub
// Registry is an App; so is anything implementing Pop. Apps used with
// atomic execution must also implement Checkpointable.
type App = core.Server

// MembershipMode selects how the system tracks server failures.
type MembershipMode int

// Membership modes.
const (
	// MembershipNone runs without a membership service: group membership
	// is effectively constant and calls complete only via enough replies
	// or bounded termination (the paper's default assumption).
	MembershipNone MembershipMode = iota
	// MembershipOracle delivers exact failure/recovery notifications when
	// the test harness crashes or recovers a node.
	MembershipOracle
	// MembershipDetector runs a heartbeat failure detector per node over
	// the simulated (lossy) network. A node's detector monitors the nodes
	// that exist when it is added, so add the observers (typically the
	// clients) last.
	MembershipDetector
)

// SystemOptions configures a distributed system.
type SystemOptions struct {
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Transport is the communication substrate the system's nodes attach
	// to. Default: a fresh simulated network built from Net — the only
	// case in which System.Sim() is non-nil. Pass a nettcp transport (or
	// any other implementation of the seam) to run the same composites
	// over real sockets; Net is then ignored.
	Transport Transport
	// Net is the simulated network's fault/delay model (default: perfect,
	// zero delay). Used only when Transport is nil.
	Net NetParams
	// Membership selects the membership service (default: none).
	Membership MembershipMode
	// HeartbeatInterval and SuspectAfter tune MembershipDetector.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// StableWriteLatency is the simulated checkpoint write cost.
	StableWriteLatency time.Duration
	// ReconfigureTimeout bounds how long a drain-class reconfiguration
	// waits for in-flight calls to complete (default 30s).
	ReconfigureTimeout time.Duration
	// Trace, when non-nil, receives structured trace events from every
	// node (call issue/completion, execution, replies, duplicate drops,
	// orphan kills) and from the system lifecycle (crash, recovery,
	// reconfiguration). The conformance harness (internal/check) replays
	// these through its per-property oracles.
	Trace TraceSink
}

// System is a distributed system: a transport, a stable store, an
// optional membership service, and a set of nodes running configured
// composite protocols. The transport is held through the seam interface;
// simulator-only fault controls are reached through Sim().
type System struct {
	clk    clock.Clock
	net    Transport
	sim    *netsim.Network // non-nil only when net is the simulator
	store  *stable.Store
	opts   SystemOptions
	oracle *member.Oracle

	mu    sync.Mutex
	nodes map[ProcID]*Node
}

// NewSystem creates a system with the given options.
func NewSystem(opts SystemOptions) *System {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 10 * time.Millisecond
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 5 * opts.HeartbeatInterval
	}
	if opts.ReconfigureTimeout <= 0 {
		opts.ReconfigureTimeout = 30 * time.Second
	}
	s := &System{
		clk:   opts.Clock,
		net:   opts.Transport,
		store: stable.NewStore(opts.Clock, opts.StableWriteLatency),
		opts:  opts,
		nodes: make(map[ProcID]*Node),
	}
	if s.net == nil {
		s.sim = netsim.New(opts.Clock, opts.Net)
		s.net = s.sim
	} else if sim, ok := s.net.(*netsim.Network); ok {
		s.sim = sim
	}
	if opts.Membership == MembershipOracle {
		s.oracle = member.NewOracle()
	}
	return s
}

// NewSimNet builds a standalone simulated network as a Transport — for
// code that drives the substrate directly (baselines, benchmarks) without
// a System around it and without importing the simulator package.
func NewSimNet(clk clock.Clock, p NetParams) Transport { return netsim.New(clk, p) }

// Group returns a normalized group; every id must already be a node.
func (s *System) Group(ids ...ProcID) Group { return msg.NewGroup(ids...) }

// Net returns the system's transport through the seam interface
// (statistics, quiesce) regardless of which substrate is underneath.
func (s *System) Net() Transport { return s.net }

// Sim returns the underlying simulated network when the system runs on
// one, and nil on a real transport. Fault injection (Partition,
// SetLinkDelay) lives here, so code that needs the simulator says so:
//
//	if sim := sys.Sim(); sim != nil { sim.Partition(1, 2, true) }
func (s *System) Sim() *netsim.Network { return s.sim }

// Store returns the shared stable storage.
func (s *System) Store() *stable.Store { return s.store }

// Clock returns the system clock.
func (s *System) Clock() clock.Clock { return s.clk }

// AddClient adds a node with no server role.
func (s *System) AddClient(id ProcID, cfg Config) (*Node, error) {
	return s.AddNode(id, cfg, nil)
}

// AddServer adds a node whose app executes incoming calls. newApp is
// invoked once now and again after every recovery, modelling the loss of
// volatile state on a crash; with atomic execution configured, the
// RECOVERY event then restores the last checkpoint into the fresh app.
func (s *System) AddServer(id ProcID, cfg Config, newApp func() App) (*Node, error) {
	if newApp == nil {
		return nil, fmt.Errorf("mrpc: AddServer(%d): newApp is required", id)
	}
	return s.AddNode(id, cfg, newApp)
}

// AddNode adds a node; newApp may be nil for a pure client.
func (s *System) AddNode(id ProcID, cfg Config, newApp func() App) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		sys:    s,
		id:     id,
		site:   proc.NewSite(id),
		cfg:    cfg,
		newApp: newApp,
		cell:   &stable.Cell{},
		cklog:  &stable.Log{},
	}

	s.mu.Lock()
	if _, dup := s.nodes[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("mrpc: node %d already exists", id)
	}
	ep, err := s.net.Attach(id, nil)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	n.ep = ep
	// Register before starting so a detector's peer snapshot includes
	// this node; start happens outside the lock (it reads the node map
	// through membershipFor).
	s.nodes[id] = n
	s.mu.Unlock()

	if err := n.start(false); err != nil {
		s.mu.Lock()
		delete(s.nodes, id)
		s.mu.Unlock()
		n.ep.SetUp(false)
		return nil, err
	}
	return n, nil
}

// Node returns the node with the given id, if present.
func (s *System) Node(id ProcID) (*Node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[id]
	return n, ok
}

// Quiesce waits for in-flight network deliveries to complete.
func (s *System) Quiesce() { s.net.Quiesce() }

// Stop shuts down every node and the network.
func (s *System) Stop() {
	s.mu.Lock()
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		n.shutdown()
	}
	s.net.Stop()
}

// Reconfigure hot-swaps every node in the system to newCfg, coordinating
// the quiesce across the group: when any node's transition is drain-class,
// admission closes on all nodes together, every in-flight client call runs
// to completion, and the network settles before any node swaps — so no call
// straddles two semantic regimes. Live-class transitions swap each node
// under its dispatch barrier with no drain. Down nodes are not swapped;
// they are given the new configuration for their next Recover. An illegal
// transition on any node rejects the whole reconfiguration before anything
// changes. See DESIGN.md deviation D14.
func (s *System) Reconfigure(newCfg Config) error {
	if err := newCfg.Validate(); err != nil {
		return err
	}

	s.mu.Lock()
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })

	// Serialize against every per-node lifecycle operation (Crash, Recover,
	// per-node Reconfigure), acquiring in id order to stay deadlock-free.
	for _, n := range nodes {
		n.lifeMu.Lock()
	}
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[i].lifeMu.Unlock()
		}
	}()

	// Phase 1: plan and build. Any illegal transition or build failure
	// rejects the reconfiguration before any node is touched.
	type target struct {
		n      *Node
		comp   *core.Composite
		protos []core.MicroProtocol
	}
	var ups []target
	anyDrain := false
	for _, n := range nodes {
		n.mu.Lock()
		comp, app, down, oldCfg := n.comp, n.app, n.down, n.cfg
		n.mu.Unlock()
		if down {
			continue
		}
		plan, err := config.PlanTransition(oldCfg, newCfg)
		if err != nil {
			return fmt.Errorf("mrpc: node %d: %w", n.id, err)
		}
		if plan.Class == config.TransitionDrain {
			anyDrain = true
		}
		protos, err := n.buildProtocols(newCfg, app)
		if err != nil {
			return err
		}
		ups = append(ups, target{n: n, comp: comp, protos: protos})
	}

	// Phase 2: drain-class quiesce, all of it a hard requirement (a timeout
	// reopens admission and fails the reconfiguration). Client calls must
	// complete everywhere; then the group settles: no in-flight deliveries,
	// no held server records, and no outstanding (re)transmissions. The
	// last condition is what makes the swap sound: once Reliable
	// Communication has settled, every member has received every pre-swap
	// call, so no old-regime call can surface at a member for the first
	// time after the swap — where a new ordering leader would sequence it
	// even though other members already executed it, stalling their entry
	// sequence forever.
	if anyDrain {
		deadline := s.clk.Now().Add(s.opts.ReconfigureTimeout)
		for _, t := range ups {
			t.comp.Framework().CloseAdmission()
		}
		reopen := func() {
			for _, t := range ups {
				t.comp.Framework().OpenAdmission()
			}
		}
		for _, t := range ups {
			if err := t.n.drainClientCalls(t.comp.Framework(), deadline); err != nil {
				reopen()
				return err
			}
		}
		s.net.Quiesce()
		for {
			settled := true
			for _, t := range ups {
				if t.comp.Framework().PendingServerCalls() > 0 || relOutstanding(t.comp) > 0 {
					settled = false
					break
				}
			}
			if settled {
				break
			}
			if !s.clk.Now().Before(deadline) {
				reopen()
				return fmt.Errorf("mrpc: reconfigure drain timed out waiting for the group to settle")
			}
			s.clk.Sleep(time.Millisecond)
			s.net.Quiesce()
		}
	}

	// Phase 3: swap every up node, reopen admission, publish the new
	// configuration on every node (down ones included, for Recover).
	var firstErr error
	for _, t := range ups {
		if err := t.comp.Swap(t.protos); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mrpc: node %d: %w", t.n.id, err)
		}
	}
	if anyDrain {
		for _, t := range ups {
			t.comp.Framework().OpenAdmission()
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, t := range ups {
		t.comp.Framework().SetFlushSize(newCfg.FlushSize)
		t.comp.Framework().SetTreeFanout(newCfg.EffectiveFanout())
	}
	var oldCfg Config
	for i, n := range nodes {
		n.mu.Lock()
		if i == 0 {
			oldCfg = n.cfg
		}
		n.cfg = newCfg
		n.mu.Unlock()
	}
	if sink := s.opts.Trace; sink != nil {
		sink.Record(TraceEvent{Kind: trace.KReconfigure,
			Note: fmt.Sprintf("%s -> %s", oldCfg, newCfg)})
	}
	return nil
}

func (s *System) membershipFor(n *Node) member.Service {
	switch s.opts.Membership {
	case MembershipOracle:
		return s.oracle
	case MembershipDetector:
		peers := make([]ProcID, 0, 8)
		others := make([]*Node, 0, 8)
		s.mu.Lock()
		for id, other := range s.nodes {
			peers = append(peers, id)
			if other != n {
				others = append(others, other)
			}
		}
		s.mu.Unlock()
		peers = append(peers, n.id)
		det := member.NewDetector(s.clk, n.id, peers,
			s.opts.HeartbeatInterval, s.opts.SuspectAfter,
			func(to ProcID) {
				n.ep.Push(to, &msg.NetMsg{
					Type:   msg.OpHeartbeat,
					Sender: n.id,
					Inc:    n.site.Inc(),
				})
			})
		// Record the detector's *beliefs* in the trace (KSuspect /
		// KSuspectClear). Ground truth lives in KCrash/KRecover; the gap
		// between the two streams is what the no-false-suspicion oracle
		// and the gray-failure scenarios (D19) examine.
		if sink := s.opts.Trace; sink != nil {
			det.Subscribe(func(c member.Change) {
				k := trace.KSuspect
				if c.Kind == member.Recovery {
					k = trace.KSuspectClear
				}
				sink.Record(TraceEvent{Kind: k, Site: n.id,
					SiteInc: n.site.Inc(), From: c.Who})
			})
		}
		n.mu.Lock()
		n.detector = det
		n.mu.Unlock()
		// Detectors already running only know the nodes that existed when
		// they started; tell each about this one so heartbeating is
		// symmetric from the first round. (On a recovery the peer is
		// already monitored and AddPeer is a no-op.)
		for _, other := range others {
			if d := other.currentDetector(); d != nil {
				d.AddPeer(n.id)
			}
		}
		return det
	default:
		return member.NewStatic()
	}
}

// Node is one process of the system, running a configured composite
// protocol. Its methods are safe for concurrent use; Call may be invoked
// from many goroutines at once (each models one client thread).
type Node struct {
	sys    *System
	id     ProcID
	site   *proc.Site
	ep     Link
	newApp func() App
	cell   *stable.Cell
	cklog  *stable.Log

	// lifeMu serializes lifecycle operations (start, Crash, Recover,
	// Reconfigure, shutdown) against each other; mu protects the mutable
	// fields and is never held across a blocking operation.
	lifeMu sync.Mutex

	mu       sync.Mutex
	cfg      Config
	comp     *core.Composite
	app      App
	detector *member.Detector
	down     bool
}

// config returns the node's advertised configuration under n.mu — the one
// locked path every internal reader goes through (Reconfigure mutates it).
func (n *Node) config() Config {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg
}

// effective translates an advertised configuration into the one actually
// built for this node: a pure client drops the execution-property
// micro-protocols (serial, atomic), which act only on calls arriving at a
// server and would demand checkpointable state the node does not have.
func (n *Node) effective(cfg Config) Config {
	if n.newApp == nil {
		cfg.Execution = config.ExecConcurrent
	}
	return cfg
}

// currentDetector reads the failure detector under n.mu (it is written on
// the start path and cleared on crash, racing the endpoint handler).
func (n *Node) currentDetector() *member.Detector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.detector
}

// buildProtocols constructs the micro-protocol instances for cfg against
// app's checkpoint dependencies. Shared by start and Reconfigure.
func (n *Node) buildProtocols(cfg Config, app App) ([]core.MicroProtocol, error) {
	deps := config.BuildDeps{Store: n.sys.store, Cell: n.cell, Log: n.cklog}
	if cp, ok := app.(Checkpointable); ok {
		deps.State = cp
	}
	protos, err := n.effective(cfg).Protocols(deps)
	if err != nil {
		return nil, fmt.Errorf("mrpc: node %d: %w", n.id, err)
	}
	return protos, nil
}

// start builds (or rebuilds, on recovery) the composite protocol.
// The caller guarantees no concurrent start/crash.
func (n *Node) start(isRecovery bool) error {
	var app App
	if n.newApp != nil {
		app = n.newApp()
	}
	protos, err := n.buildProtocols(n.config(), app)
	if err != nil {
		return err
	}

	bus := event.New(n.sys.clk)
	comp, err := core.NewComposite(core.Options{
		Site:       n.site,
		Bus:        bus,
		Net:        n.ep,
		Server:     app,
		Membership: n.sys.membershipFor(n),
		Trace:      n.sys.opts.Trace,
		FlushSize:  n.config().FlushSize,
		TreeFanout: n.config().EffectiveFanout(),
	}, protos...)
	if err != nil {
		return fmt.Errorf("mrpc: node %d: %w", n.id, err)
	}

	n.mu.Lock()
	n.comp = comp
	n.app = app
	n.down = false
	n.mu.Unlock()

	n.ep.SetHandler(func(m *msg.NetMsg) {
		if det := n.currentDetector(); det != nil {
			det.Observe(m.Sender)
		}
		if m.Type == msg.OpHeartbeat {
			return
		}
		comp.Framework().HandleNet(m)
	})
	// Recovery handlers restore state (Atomic Execution's checkpoint, Total
	// Order's rejoin) before the endpoint comes up, so no arrival is
	// served from the fresh state.
	if isRecovery {
		comp.Framework().Recover()
	}
	n.ep.SetUp(true)
	if det := n.currentDetector(); det != nil {
		det.Start()
	}
	return nil
}

// ID returns the node's process id.
func (n *Node) ID() ProcID { return n.id }

// Link returns the node's attachment to the transport; its per-endpoint
// Stats expose the egress/ingress counters the dissemination experiments
// assert on (D17).
func (n *Node) Link() Link { return n.ep }

// Detector returns the node's heartbeat failure detector, or nil unless the
// system runs MembershipDetector (a crashed node also reports nil until it
// recovers). Tests and operators use it to audit the detector's beliefs
// against ground truth — in particular that a gray-slow member is never on
// its Suspected list.
func (n *Node) Detector() *member.Detector { return n.currentDetector() }

// Config returns the node's current configuration (Reconfigure changes it).
func (n *Node) Config() Config { return n.config() }

// App returns the node's current application instance (nil for clients).
func (n *Node) App() App {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.app
}

// Composite returns the node's composite protocol (introspection: event
// registrations, pending-table sizes).
func (n *Node) Composite() *core.Composite {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.comp
}

// Call issues an RPC to group, blocks until it completes, and returns the
// collated reply and status. It works under either call-semantics
// configuration: with synchronous semantics the calling thread parks on
// the call itself; with asynchronous semantics the issue returns
// immediately and Call then blocks collecting the result — so a caller
// racing a call-mode reconfiguration still gets its reply.
func (n *Node) Call(op OpID, args []byte, group Group) ([]byte, Status, error) {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return nil, StatusAborted, fmt.Errorf("mrpc: node %d is down", n.id)
	}
	fw := comp.Framework()
	um := fw.Call(op, args, group)
	if um.Status == StatusWaiting {
		// Asynchronous composite: the issue did not block. Collect now.
		id := um.ID
		core.PutUserMsg(um)
		um = fw.Request(id)
	}
	res, status := um.Args, um.Status
	core.PutUserMsg(um)
	return res, status, nil
}

// CallAsync issues an asynchronous RPC and returns its call id. The node
// must be configured with asynchronous call semantics; the check is made
// while holding the admission gate, so it cannot race a reconfiguration
// that switches the call mode — either the call is admitted under the
// asynchronous composite, or CallAsync rejects it (and the caller can fall
// back to Call, which works under both modes).
func (n *Node) CallAsync(op OpID, args []byte, group Group) (CallID, error) {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return 0, fmt.Errorf("mrpc: node %d is down", n.id)
	}
	fw := comp.Framework()
	fw.AdmitEnter()
	if n.config().Call != config.CallAsynchronous {
		fw.AdmitExit()
		return 0, fmt.Errorf("mrpc: node %d is not configured for asynchronous calls", n.id)
	}
	um := fw.CallAdmitted(op, args, group)
	fw.AdmitExit()
	// An asynchronous issue never waits, but collect defensively in case a
	// handler raised the flag (e.g. a mixed composite mid-swap).
	fw.CollectUserMsg(um)
	id := um.ID
	core.PutUserMsg(um)
	return id, nil
}

// Collect blocks until the asynchronous call id completes and returns its
// collated reply and status.
func (n *Node) Collect(id CallID) ([]byte, Status, error) {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return nil, StatusAborted, fmt.Errorf("mrpc: node %d is down", n.id)
	}
	um := comp.Framework().Request(id)
	res, status := um.Args, um.Status
	core.PutUserMsg(um)
	return res, status, nil
}

// PipelineBegin opens a pipeline section: outbound messages (calls issued
// with CallAsync, retransmissions, acks) are held in the per-destination
// flush queue and coalesced into batch frames instead of being sent
// immediately. Sections nest; each PipelineBegin must be matched by a
// PipelineEnd. A full lane (Config.FlushSize) still flushes early, so a
// long pipeline is bounded in memory.
func (n *Node) PipelineBegin() {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return
	}
	comp.Framework().PipelineBegin()
}

// PipelineEnd closes the innermost pipeline section; when the outermost
// section closes, every held batch is flushed.
func (n *Node) PipelineEnd() {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return
	}
	comp.Framework().PipelineEnd()
}

// Flush forces every partially filled batch in the node's flush queue onto
// the network immediately, regardless of pipeline sections.
func (n *Node) Flush() {
	n.mu.Lock()
	comp, down := n.comp, n.down
	n.mu.Unlock()
	if down {
		return
	}
	comp.Framework().Flush()
}

// Crash fails the node: its endpoint goes silent, volatile state (pending
// tables, app memory) is lost, in-progress calls at other sites see only
// silence. With an oracle membership service the failure is announced.
func (n *Node) Crash() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()

	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	comp := n.comp
	det := n.detector
	n.detector = nil
	n.mu.Unlock()

	n.ep.SetUp(false)
	if det != nil {
		det.Stop()
	}
	if sink := n.sys.opts.Trace; sink != nil {
		sink.Record(TraceEvent{Kind: trace.KCrash, Site: n.id, SiteInc: n.site.Inc()})
	}
	n.site.Crash()
	comp.Close()
	if n.sys.oracle != nil {
		n.sys.oracle.Fail(n.id)
	}
}

// Recover restarts the node under a new incarnation: a fresh composite
// protocol and a fresh app instance (initial state), after which the
// RECOVERY event runs — restoring the last checkpoint when atomic
// execution is configured. With an oracle membership service the recovery
// is announced.
func (n *Node) Recover() error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()

	n.mu.Lock()
	if !n.down {
		n.mu.Unlock()
		return fmt.Errorf("mrpc: node %d is not down", n.id)
	}
	n.mu.Unlock()

	n.site.Recover()
	if err := n.start(true); err != nil {
		return err
	}
	if sink := n.sys.opts.Trace; sink != nil {
		sink.Record(TraceEvent{Kind: trace.KRecover, Site: n.id, SiteInc: n.site.Inc()})
	}
	if n.sys.oracle != nil {
		n.sys.oracle.Recover(n.id)
	}
	return nil
}

// Reconfigure hot-swaps the node's composite protocol to newCfg without
// restarting the node and without dropping in-flight calls. The transition
// is validated and classified first (config.PlanTransition): live-class
// transitions swap under the dispatch barrier alone; drain-class transitions
// first stop admitting new calls and wait — up to
// SystemOptions.ReconfigureTimeout — for the node's in-flight client calls
// to complete (dispatch keeps running during the wait, so replies and
// retransmissions flow). Illegal transitions (atomicity changes) are
// rejected with a diagnosable error before the node is touched. For a
// group-wide change prefer System.Reconfigure, which quiesces all nodes
// together. See DESIGN.md deviation D14.
func (n *Node) Reconfigure(newCfg Config) error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()

	n.mu.Lock()
	comp, app, down, oldCfg := n.comp, n.app, n.down, n.cfg
	n.mu.Unlock()
	if down {
		return fmt.Errorf("mrpc: node %d is down", n.id)
	}

	plan, err := config.PlanTransition(oldCfg, newCfg)
	if err != nil {
		return fmt.Errorf("mrpc: node %d: %w", n.id, err)
	}
	protos, err := n.buildProtocols(newCfg, app)
	if err != nil {
		return err
	}

	fw := comp.Framework()
	drain := plan.Class == config.TransitionDrain
	if drain {
		deadline := n.sys.clk.Now().Add(n.sys.opts.ReconfigureTimeout)
		fw.CloseAdmission()
		if err := n.drainClientCalls(fw, deadline); err != nil {
			fw.OpenAdmission()
			return err
		}
		// Completed calls may still be retransmitting to members that have
		// not acknowledged receipt (the same-set property). Swapping those
		// entries away would strand the laggards, so wait them out too.
		for relOutstanding(comp) > 0 {
			if n.sys.clk.Now().After(deadline) {
				fw.OpenAdmission()
				return fmt.Errorf("mrpc: node %d: reconfigure drain timed out with outstanding retransmissions", n.id)
			}
			n.sys.clk.Sleep(time.Millisecond)
		}
	}
	err = comp.Swap(protos)
	if drain {
		fw.OpenAdmission()
	}
	if err != nil {
		return fmt.Errorf("mrpc: node %d: %w", n.id, err)
	}
	fw.SetFlushSize(newCfg.FlushSize)
	fw.SetTreeFanout(newCfg.EffectiveFanout())

	n.mu.Lock()
	n.cfg = newCfg
	n.mu.Unlock()
	if sink := n.sys.opts.Trace; sink != nil {
		sink.Record(TraceEvent{Kind: trace.KReconfigure, Site: n.id,
			Note: fmt.Sprintf("%s -> %s", oldCfg, newCfg)})
	}
	return nil
}

// relOutstanding returns the composite's count of calls still being
// (re)transmitted by Reliable Communication, or zero when the protocol is
// not configured.
func relOutstanding(comp *core.Composite) int {
	if rc, ok := comp.Protocol("Reliable Communication").(*core.ReliableCommunication); ok {
		return rc.Outstanding()
	}
	return 0
}

// drainClientCalls polls until the node has no in-flight client calls or the
// deadline passes. Only admission is blocked during the wait; dispatch
// (replies, retransmissions, timer events) keeps running, which is what lets
// the in-flight calls finish.
func (n *Node) drainClientCalls(fw *core.Framework, deadline time.Time) error {
	clk := n.sys.clk
	for {
		waiting := fw.WaitingClientCalls()
		if waiting == 0 {
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("mrpc: node %d: reconfigure drain timed out with %d in-flight calls",
				n.id, waiting)
		}
		clk.Sleep(time.Millisecond)
	}
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

func (n *Node) shutdown() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()

	n.mu.Lock()
	comp := n.comp
	det := n.detector
	n.detector = nil
	n.mu.Unlock()
	n.ep.SetUp(false)
	if det != nil {
		det.Stop()
	}
	comp.Close()
}
