package trace

import (
	"strings"
	"sync"
	"testing"

	"mrpc/internal/msg"
)

// TestLogConcurrentRecord checks the emission-ordering contract the
// conformance oracles rely on: under concurrent emitters every event gets a
// unique Seq, Events() is sorted by Seq, and the per-emitter program order
// is preserved in Seq order (the single mutex makes Seq consistent with
// real time).
func TestLogConcurrentRecord(t *testing.T) {
	l := NewLog()
	const emitters = 8
	const perEmitter = 200
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(site msg.ProcID) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				l.Record(Event{Kind: KExecBegin, Site: site, ID: msg.CallID(i)})
			}
		}(msg.ProcID(g + 1))
	}
	wg.Wait()

	events := l.Events()
	if len(events) != emitters*perEmitter {
		t.Fatalf("len = %d, want %d", len(events), emitters*perEmitter)
	}
	lastPerSite := make(map[msg.ProcID]msg.CallID)
	seen := make(map[int64]bool)
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has Seq %d (want dense ascending)", i, e.Seq)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
		// One emitter's records must appear in its own program order.
		if prev, ok := lastPerSite[e.Site]; ok && e.ID != prev+1 {
			t.Fatalf("site %d emitted id %d after %d: per-emitter order lost", e.Site, e.ID, prev)
		}
		lastPerSite[e.Site] = e.ID
	}
}

// TestLogEventsIsACopy checks Events() snapshots: mutating the returned
// slice does not alias the log's internal state.
func TestLogEventsIsACopy(t *testing.T) {
	l := NewLog()
	l.Record(Event{Kind: KCallIssued})
	snap := l.Events()
	snap[0].Kind = KCrash
	if l.Events()[0].Kind != KCallIssued {
		t.Fatal("Events() aliases the internal slice")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KCallIssued:    "CALL_ISSUED",
		KCallDone:      "CALL_DONE",
		KReplyAccepted: "REPLY_ACCEPTED",
		KExecBegin:     "EXEC_BEGIN",
		KExecEnd:       "EXEC_END",
		KReplySent:     "REPLY_SENT",
		KDupDropped:    "DUP_DROPPED",
		KOrphanKilled:  "ORPHAN_KILLED",
		KCrash:         "CRASH",
		KRecover:       "RECOVER",
		KReconfigure:   "RECONFIGURE",
		KGrayStart:     "GRAY_START",
		KGrayEnd:       "GRAY_END",
		KFlap:          "FLAP",
		KSuspect:       "SUSPECT",
		KSuspectClear:  "SUSPECT_CLEAR",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders as %q", got)
	}
}

func TestEventKeyAndInc(t *testing.T) {
	id := msg.CallID(int64(3)<<32 | 17)
	e := Event{Kind: KExecBegin, Client: 100, ID: id}
	if k := e.Key(); k.Client != 100 || k.ID != id {
		t.Fatalf("Key() = %+v", k)
	}
	if inc := CallInc(id); inc != 3 {
		t.Fatalf("CallInc = %d, want 3", inc)
	}
	if s := e.String(); !strings.Contains(s, "EXEC_BEGIN") || !strings.Contains(s, "100") {
		t.Fatalf("String() = %q", s)
	}
}
