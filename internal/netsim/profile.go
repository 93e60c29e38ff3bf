package netsim

import (
	"time"

	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// This file is the adversarial-profile engine (DESIGN.md D19): per-directed-
// link WAN profiles, bounded reordering storms, gray-slow endpoints and
// flapping partitions. Every stochastic choice rolls on the existing
// per-link seeded generators (linkState.rng), in a fixed order per admitted
// message — loss, duplication, jitter, spike, storm — so a seed fully
// determines the fault pattern and shrinking stays reproducible.
// Deterministic additions (gray delay, serialization time) consume no
// randomness at all, which keeps every other link's stream untouched.

// ProfileStats counts what the adversarial profiles did to traffic since the
// network was created. Only the simulator rolls these faults, so they are
// kept here rather than in the shared transport.Stats.
type ProfileStats struct {
	Reordered  int64 // messages delayed by a reordering storm window
	Spikes     int64 // deliveries that took a profile latency spike
	GrayDelays int64 // messages delayed by a gray-slow endpoint
	FlapCycles int64 // completed partition flap cycles
}

// ProfileStats returns a snapshot of the profile counters.
func (n *Network) ProfileStats() ProfileStats {
	return ProfileStats{
		Reordered:  n.reordered.Load(),
		Spikes:     n.spikes.Load(),
		GrayDelays: n.grayDelays.Load(),
		FlapCycles: n.flapCycles.Load(),
	}
}

// ReorderParams configures bounded reordering storms on a link. A storm
// starts with probability Prob per surviving message; while active, each of
// the next Window messages (including the trigger) gains an extra delay
// drawn uniformly from [0, Spread], which permutes delivery order within a
// bounded burst instead of smearing every message. Zero values disable the
// feature.
type ReorderParams struct {
	// Prob is the per-message probability that a storm window opens.
	Prob float64
	// Window is the number of messages a storm affects.
	Window int
	// Spread bounds the extra delay drawn per stormed message.
	Spread time.Duration
}

func (r ReorderParams) active() bool { return r.Prob > 0 && r.Window > 0 && r.Spread > 0 }

// LinkProfile shapes one *directed* link — profiles are asymmetric by
// construction, so an uplink and its downlink can differ (WAN asymmetry,
// a saturated reverse path). A profile overrides the network-wide delay
// bounds and SetLinkDelay for its direction.
type LinkProfile struct {
	// MinDelay and MaxDelay bound the uniform base delay for this
	// direction (replacing Params.MinDelay/MaxDelay and SetLinkDelay).
	MinDelay, MaxDelay time.Duration
	// SpikeProb is the probability a delivery takes a latency spike —
	// a heavy-tailed WAN-like distribution on top of the uniform base.
	SpikeProb float64
	// SpikeDelay is the extra delay a spiked delivery incurs.
	SpikeDelay time.Duration
	// BytesPerSec, when positive, adds a deterministic serialization
	// delay of size/BytesPerSec per delivery (bandwidth constraint).
	BytesPerSec int64
	// Reorder overrides Params.Reorder for this direction.
	Reorder ReorderParams
}

// SetLinkProfile installs a profile on the directed link from→to. The
// reverse direction is unaffected (set it separately for symmetric links).
// Installing a profile does not reset the link's fault generator, so a
// profile can be changed mid-run without perturbing other links.
func (n *Network) SetLinkProfile(from, to msg.ProcID, p LinkProfile) {
	if p.MaxDelay < p.MinDelay {
		p.MaxDelay = p.MinDelay
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profiles[dirLink{from: from, to: to}] = p
}

// ClearLinkProfile removes the directed profile from→to, restoring the
// network-wide delay model for that direction.
func (n *Network) ClearLinkProfile(from, to msg.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.profiles, dirLink{from: from, to: to})
}

// SetGraySlow makes endpoint id gray-slow: every delivery into or out of
// it gains the fixed extra delay d, on top of whatever the link's delay
// model produces. d = 0 clears the state. The delay is deterministic — it
// draws no randomness — so graying a member never perturbs any link's
// fault stream. A gray member keeps sending and receiving (heartbeats
// included, just late), which is exactly what makes it adversarial: it
// stalls lanes that wait on it while a threshold-based failure detector,
// seeing steady if delayed heartbeats, never reports it down.
func (n *Network) SetGraySlow(id msg.ProcID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.gray, id)
	} else {
		n.gray[id] = d
	}
}

// StartFlap runs `cycles` scripted split/heal cycles on the a↔b link, each
// of length `period` (blocked for period/2, healed for period/2), driven by
// the network clock. It returns immediately; the returned channel closes
// once every cycle has run and the link is healed. Flapping composes with
// every other profile: admission checks the partition state in force at
// send time, so a flap that outpaces retransmission (or a failure
// detector's convergence) intermittently starves a link without ever
// presenting a stable failure.
func (n *Network) StartFlap(a, b msg.ProcID, period time.Duration, cycles int) <-chan struct{} {
	done := make(chan struct{})
	if cycles <= 0 || period <= 0 {
		close(done)
		return done
	}
	half := period / 2
	if half <= 0 {
		half = 1
	}
	var cycle func(remaining int)
	cycle = func(remaining int) {
		if remaining == 0 {
			n.Partition(a, b, false) // end healed, whatever happened before
			close(done)
			return
		}
		n.Partition(a, b, true)
		n.clk.AfterFunc(half, func() {
			n.Partition(a, b, false)
			n.flapCycles.Add(1)
			n.clk.AfterFunc(half, func() { cycle(remaining - 1) })
		})
	}
	cycle(cycles)
	return done
}

// wireSize estimates the on-the-wire size of a delivery for bandwidth
// accounting: exact when the codec is on (the shared wire bytes), the
// codec's computed frame length otherwise.
func wireSize(d transport.Frame) int64 {
	if d.Wire != nil {
		return int64(len(d.Wire))
	}
	return int64(d.M.EncodedLen())
}
