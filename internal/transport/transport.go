// Package transport defines the seam between the composite-protocol
// facade and the communication substrate beneath it — the "Net" protocol
// of the paper's stack, reduced to the operations the micro-protocols and
// the system lifecycle actually use.
//
// The paper's central claim is that group RPC semantics are composed from
// micro-protocols independent of the substrate underneath; this package is
// where that independence is enforced in the type system. Two
// implementations exist: internal/netsim, the deterministic in-process
// simulator (fault injection, seeded replay — the conformance harness's
// twin), and internal/nettcp, a real TCP (TLS-optional) transport carrying
// the same length-framed wire encoding between OS processes. The facade
// (package mrpc) holds only these interfaces; simulator-only controls
// (Partition, SetLinkDelay, Params) are reached through the explicit
// System.Sim() escape hatch, so code that needs the simulator says so.
//
// The substrate contract is deliberately weak — unreliable, unordered,
// uncounted: a transport may drop, duplicate, delay or reorder frames
// freely. Reliability, ordering and termination are the micro-protocols'
// job; that is what makes a lossy socket and a seeded simulator
// interchangeable under the same composite.
package transport

import "mrpc/internal/msg"

// Handler receives a delivered message. Each arrival is an independent
// trigger: implementations run it on a pooled per-endpoint worker or a
// fresh goroutine, never behind another arrival's blocked handler (a
// blocked handler — serial execution, a semaphore wait — must not delay an
// unrelated arrival, or composites deadlock on their own traffic). The
// message is shared with other recipients of the same send and must be
// treated as read-only (msg.NetMsg.Mutable gives a private copy).
type Handler func(*msg.NetMsg)

// Stats counts transport-level events since the transport was created.
// One struct serves every implementation so the facade can re-export a
// single stats type; counters a substrate cannot observe stay zero (the
// simulator never reconnects, a socket never rolls a seeded fault).
type Stats struct {
	Sent       int64 // frames offered to the transport (per destination)
	Delivered  int64 // frames handed to a delivery handler
	Dropped    int64 // lost: injected omission faults, full queues, write errors
	Duplicated int64 // injected duplications (simulator only)
	Partition  int64 // drops due to partitions (simulator only)
	DownDrops  int64 // drops due to a down endpoint or unknown destination
	Batches    int64 // OpBatch frames offered (admitted and counted as one unit)
	Reconnects int64 // connections (re)established after a loss (nettcp only)
}

// EndpointStats counts one endpoint's traffic. Egress is the number of
// frames the endpoint offered toward OTHER processes — self-deliveries are
// excluded, since a loopback push costs the sender nothing on a real NIC —
// counted at admission, before faults or socket errors, so it measures
// what the sender pays, not what the network lets through. Ingress is the
// number of frames actually handed to the endpoint's handler. The
// dissemination work (D17) keys its O(k)-egress assertion on these.
type EndpointStats struct {
	Egress  int64
	Ingress int64
}

// Endpoint is one process's attachment point: the x-kernel-style push
// operations used by the micro-protocols plus the lifecycle controls the
// facade drives on crash and recovery. core.Transport (Push/Multicast) is
// a subset of this interface, so an Endpoint plugs directly beneath the
// flush queue and the disseminator.
type Endpoint interface {
	// ID returns the endpoint's process id.
	ID() msg.ProcID
	// Push sends m to a single destination (Net.push of the paper). The
	// message is frozen, not cloned: the caller and every recipient share
	// one read-only body, and the caller must not mutate m afterwards.
	Push(to msg.ProcID, m *msg.NetMsg)
	// Multicast sends m to every member of the group, including the
	// sender's own process when it is a member (Net.push(server_group,
	// msg)). The message is encoded at most once; every destination
	// shares the frozen body or the immutable wire bytes.
	Multicast(group msg.Group, m *msg.NetMsg)
	// SetHandler replaces the delivery handler (used on process recovery,
	// when a fresh composite protocol instance takes over the endpoint).
	SetHandler(h Handler)
	// SetUp marks the endpoint up or down. A down endpoint neither sends
	// nor receives — frames toward it are dropped at delivery time —
	// modelling a crashed site.
	SetUp(up bool)
	// Up reports whether the endpoint is up.
	Up() bool
	// Stats returns a snapshot of the endpoint's traffic counters.
	Stats() EndpointStats
}

// Transport is the communication substrate: a factory of endpoints plus
// whole-substrate lifecycle. Implementations must allow multiple local
// endpoints (the simulator hosts a whole system; the TCP transport hosts
// every node of an in-process test over real loopback sockets, and exactly
// one endpoint in a production process).
type Transport interface {
	// Attach connects process id with h as its delivery handler (h may be
	// nil until SetHandler). Attaching an id twice is an error.
	Attach(id msg.ProcID, h Handler) (Endpoint, error)
	// Stats returns a snapshot of the transport counters.
	Stats() Stats
	// Quiesce waits until no locally observable delivery work remains in
	// flight: scheduled simulator deliveries, queued outbound frames,
	// running handlers. It cannot speak for remote processes — a frame
	// written to a socket is "done" even though the peer has yet to read
	// it — so cross-process callers poll protocol state on top.
	Quiesce()
	// Stop shuts the transport down: further sends are silently
	// discarded, in-flight deliveries finish, workers are retired.
	Stop()
}
