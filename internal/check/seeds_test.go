package check

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenSeeds replays the pinned edge-case corpus in testdata/seeds.json.
// Each entry is a scenario that once stressed a bug-prone interaction and is
// now held as a regression: it must run to completion, satisfy every
// applicable oracle, and reproduce its digest on a rerun.
//
// The corpus:
//
//   - total-leader-crash-election: the total-order leader (the highest live
//     id) crashes mid-run, forcing the §4.4.6 ORDER_QUERY/ORDER_INFO
//     takeover agreement, while the client is partitioned from the new
//     leader — its calls reach the sequencer only via follower nudging. The
//     old leader then recovers while the no-wait calls are still in
//     flight and, as the highest id, leads again: its rejoin round (D4)
//     must number them above everything the group already used. Before
//     the round it restarted at 1, the survivors dropped the calls as
//     served, and the batch hung in a few percent of runs (about half
//     under -race).
//
//   - drain-reconfig-crash: a no-wait call batch races a drain-class
//     reconfiguration (attaching FIFO order spans call lifetimes, so
//     admission must quiesce first), and a member then crashes and recovers
//     across the configuration boundary.
//
//   - gray-slow-member: a heartbeat failure detector watches the group
//     while member 2 turns gray-slow (every message delayed 12ms, a fifth
//     of the 60ms suspicion threshold) under accept-all acceptance — every
//     call stalls on the slow lane, yet the detector must leave no stuck
//     suspicion and every call completes OK (D19).
//
//   - flap-during-reconfigure: a scripted split/heal cycle train on the
//     client's link to member 1 races a no-wait batch AND a drain-class
//     none→FIFO reconfiguration — admission's quiesce and the reliable
//     layer's retransmissions both thread the flapping window (D19).
//
//   - fifo-tree-accept-one: synchronous FIFO with acceptance 1 over a
//     tree(3) on six members. The client moves on after the first reply
//     while the previous call is still being relayed to the leaf members,
//     so a leaf can hear call k+1 first. Before lane bases (D10) the leaf
//     started its FIFO lane at k+1 and dropped k for good, breaking
//     same-set in most runs.
//
//   - fifo-concurrent-callers: two no-wait batches and a waited one from
//     the same client under FIFO, so calls are issued concurrently and
//     can arrive in either order. A lane opened at the later call dropped
//     the earlier one, which then never completed.
func TestGoldenSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("golden seeds skipped in -short mode")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "seeds.json"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []Scenario
	if err := json.Unmarshal(data, &seeds); err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("empty seed corpus")
	}
	for _, sc := range seeds {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			first, err := Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, v := range first.Violations {
				t.Errorf("violation: %s", v)
			}
			second, err := Run(sc)
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			if first.Digest != second.Digest {
				t.Fatalf("digest did not reproduce: %s vs %s", first.Digest, second.Digest)
			}
		})
	}
}
