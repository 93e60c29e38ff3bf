package main

import (
	"fmt"
	"time"

	"mrpc"
)

// settleTimeout bounds the wait for the group to finish executing and for
// the transport to go quiet before the output checks run.
const settleTimeout = 10 * time.Second

// check is one output check's verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// verify runs the output checks on a system after its load has stopped:
// every OK reply equalled its arguments; once the group has settled, every
// server executed every OK call exactly once (and no other call twice);
// under total order every server executed the same sequence; and the
// transport's counters balance.
func (s *system) verify(res *loadResult) []check {
	checks := []check{{
		name:   "reply_equals_args",
		ok:     res.mismatch == 0,
		detail: fmt.Sprintf("%d of %d OK replies differ from their arguments", res.mismatch, res.attempted-res.failed),
	}}

	issued := s.nextTag.Load()
	s.mu.Lock()
	failed := make(map[uint64]bool, len(s.failedTags))
	for t := range s.failedTags {
		failed[t] = true
	}
	s.mu.Unlock()
	want := int(issued) - len(failed)
	deadline := time.Now().Add(settleTimeout)
	for {
		settled := true
		for _, l := range s.logs {
			if n, _, _ := l.snapshot(); n < want {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.sys.Quiesce()

	var missing, extra, bad int
	for _, l := range s.logs {
		l.mu.Lock()
		for tag := uint64(0); tag < issued; tag++ {
			var c uint8
			if tag < uint64(len(l.counts)) {
				c = l.counts[tag]
			}
			switch {
			case c > 1:
				extra++
			case c == 0 && !failed[tag]:
				missing++
			}
		}
		extra += int(uint64(len(l.counts)) - min(uint64(len(l.counts)), issued))
		bad += l.bad
		l.mu.Unlock()
	}
	checks = append(checks, check{
		name:   "exactly_once",
		ok:     missing == 0 && extra == 0 && bad == 0,
		detail: fmt.Sprintf("%d calls x %d servers: %d missing, %d repeated, %d unreadable", issued, len(s.logs), missing, extra, bad),
	})

	if s.w.cfg().Ordering == mrpc.OrderTotal {
		n0, h0, _ := s.logs[0].snapshot()
		same := true
		for _, l := range s.logs[1:] {
			if n, h, _ := l.snapshot(); n != n0 || h != h0 {
				same = false
			}
		}
		checks = append(checks, check{
			name:   "same_sequence",
			ok:     same,
			detail: fmt.Sprintf("%d servers, %d executions each", len(s.logs), n0),
		})
	}

	var st mrpc.NetStats
	var in, out int64
	for {
		s.sys.Quiesce()
		st = s.tap.Stats()
		in, out = st.Sent+st.Duplicated, st.Delivered+st.Dropped+st.Partition+st.DownDrops
		if in == out || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	checks = append(checks, check{
		name: "transport_accounting",
		ok:   in == out,
		detail: fmt.Sprintf("sent %d + duplicated %d vs delivered %d + dropped %d + partitioned %d + down %d",
			st.Sent, st.Duplicated, st.Delivered, st.Dropped, st.Partition, st.DownDrops),
	})
	return checks
}
