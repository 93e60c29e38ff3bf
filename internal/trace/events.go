package trace

import (
	"fmt"
	"sync"

	"mrpc/internal/msg"
)

// Kind classifies a structured trace event. The conformance harness
// (internal/check) replays streams of these events through per-property
// oracles, so each kind marks one semantically meaningful point in a
// call's lifetime rather than a low-level protocol step.
type Kind uint8

// Event kinds. Call-side events are observed at the issuing client's
// site; execution-side events at the server's site; lifecycle events
// (crash, recover, reconfigure) are emitted by the harness driving the
// system.
const (
	// KCallIssued: a client created a new pending call record.
	KCallIssued Kind = iota + 1
	// KCallDone: a pending call reached a terminal status (OK, TIMEOUT
	// or ABORTED) and its waiter was (or will be) woken.
	KCallDone
	// KReplyAccepted: Acceptance folded a (non-duplicate) server reply
	// into the pending call.
	KReplyAccepted
	// KExecBegin: the server procedure is about to run for a call.
	KExecBegin
	// KExecEnd: the server procedure returned for a call.
	KExecEnd
	// KReplySent: the server pushed the call's reply to the client.
	KReplySent
	// KDupDropped: Unique Execution recognized a duplicate request and
	// suppressed re-execution (answering from the retained response or
	// discarding the copy).
	KDupDropped
	// KOrphanKilled: an orphan-handling micro-protocol dropped a held
	// call (stale incarnation) or suppressed the reply of a killed
	// computation.
	KOrphanKilled
	// KCrash: the harness crashed a node.
	KCrash
	// KRecover: the harness recovered a node under a new incarnation.
	KRecover
	// KReconfigure: the harness reconfigured the system; Note carries
	// the transition description. Events before/after this marker ran
	// under different configurations.
	KReconfigure
	// KBatchFlushed: the flush queue coalesced two or more outbound
	// messages into one batch frame (deviation D16). Site is the sender,
	// From the destination; Op carries the batch size.
	KBatchFlushed
	// KBatchDelivered: a batch frame arrived and its sub-messages are
	// about to dispatch sequentially in send order. Site is the receiver,
	// From the sender; Op carries the batch size.
	KBatchDelivered
	// KRelay: a dissemination-tree node forwarded a frozen frame to its
	// children (D17). Site is the relaying node, From the frame's origin;
	// Op carries the number of children relayed to.
	KRelay
	// KReparent: a membership failure re-parented part of a dissemination
	// tree — Site adopted orphaned members and re-delivered its window of
	// in-flight frames to them (D17). From is the failed node; Op carries
	// the number of adopted members.
	KReparent
	// KGrayStart: the harness made a node gray-slow — alive, but with
	// every ingress and egress delayed (D19). Site is the gray node; Note
	// carries the delay. The node is NOT crashed: no KCrash accompanies
	// this, which is precisely what the no-false-suspicion oracle leans
	// on.
	KGrayStart
	// KGrayEnd: the harness cleared a node's gray-slow state.
	KGrayEnd
	// KFlap: the harness started a scripted partition flap — repeated
	// split/heal cycles on one link (D19). Site and From are the link's
	// two ends; Op carries the cycle count; Note the period. The link is
	// healed again by the time the run settles.
	KFlap
	// KSuspect: a failure detector declared a peer down. Site is the
	// observing node, From the suspect. This records the detector's
	// *belief*; ground truth is the KCrash/KRecover lifecycle events, and
	// the gap between the two is what gray failures exploit.
	KSuspect
	// KSuspectClear: a failure detector heard from a suspect again and
	// reinstated it. Site is the observer, From the reinstated peer.
	KSuspectClear
)

var kindNames = [...]string{"", "CALL_ISSUED", "CALL_DONE", "REPLY_ACCEPTED",
	"EXEC_BEGIN", "EXEC_END", "REPLY_SENT", "DUP_DROPPED", "ORPHAN_KILLED",
	"CRASH", "RECOVER", "RECONFIGURE", "BATCH_FLUSHED", "BATCH_DELIVERED",
	"RELAY", "REPARENT", "GRAY_START", "GRAY_END", "FLAP", "SUSPECT",
	"SUSPECT_CLEAR"}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && k > 0 {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Event is one structured trace record. Not every field is meaningful
// for every kind; unused fields are zero.
type Event struct {
	// Seq is the global observation order, assigned by the Log. It is
	// consistent with real time (a single mutex orders all records), so
	// within one site it reflects the site's own event order.
	Seq int64
	// Kind classifies the event.
	Kind Kind
	// Site is the process observing the event (the client for call-side
	// events, the server for execution-side events).
	Site msg.ProcID
	// SiteInc is the observing site's incarnation at emission time.
	SiteInc msg.Incarnation
	// Client and ID identify the call ((client, id) is the global call
	// key; the client's incarnation is embedded in the id's upper bits).
	Client msg.ProcID
	ID     msg.CallID
	// Op is the remote operation (call-issue and execution events).
	Op msg.OpID
	// Status is the terminal status (KCallDone).
	Status msg.Status
	// From is the replying server (KReplyAccepted).
	From msg.ProcID
	// Group is the call's destination group (KCallIssued).
	Group msg.Group
	// VC is the call's causal timestamp (KCallIssued under Causal Order).
	VC msg.VClock
	// Note carries free-form detail (reconfiguration transitions).
	Note string
}

// Key returns the call key the event refers to.
func (e Event) Key() msg.CallKey { return msg.CallKey{Client: e.Client, ID: e.ID} }

// CallInc extracts the issuing client's incarnation from a call id
// (deviation D9: ids embed the incarnation in their upper 32 bits).
func CallInc(id msg.CallID) msg.Incarnation { return msg.Incarnation(id >> 32) }

// String renders a compact single-line form.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s site=%d/%d key=%d:%d op=%d st=%s from=%d %s",
		e.Seq, e.Kind, e.Site, e.SiteInc, e.Client, e.ID, e.Op, e.Status, e.From, e.Note)
}

// Sink receives structured trace events. A nil Sink disables tracing;
// Framework emission sites check for nil before building the event, so
// the disabled path costs one pointer compare.
type Sink interface {
	Record(Event)
}

// Log is the standard Sink: an append-only, mutex-ordered event log.
// Record assigns each event a unique, strictly increasing Seq; because
// all records serialize on one mutex, Seq order is consistent with the
// real-time order of emission (if a happens-before b in the program, a's
// Seq is smaller).
type Log struct {
	mu     sync.Mutex
	seq    int64
	events []Event
}

// NewLog returns an empty event log.
func NewLog() *Log { return &Log{} }

// Record implements Sink.
func (l *Log) Record(e Event) {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in Seq order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}
