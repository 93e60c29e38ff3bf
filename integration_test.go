package mrpc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/config"
)

// ckApp is a checkpointable echo/counter app for configurations that
// require atomic execution.
type ckApp struct {
	mu  sync.Mutex
	n   int64
	log []string
}

func (a *ckApp) Pop(_ *mrpc.Thread, _ mrpc.OpID, args []byte) []byte {
	a.mu.Lock()
	a.n++
	a.log = append(a.log, string(args))
	a.mu.Unlock()
	return args
}

func (a *ckApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return mrpc.NewWriter(8).PutInt64(a.n).Bytes()
}

func (a *ckApp) Restore(data []byte) error {
	r := mrpc.NewReader(data)
	n := r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	a.n = n
	a.mu.Unlock()
	return nil
}

func (a *ckApp) executed() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.log...)
}

// TestAllConfigurationsServeACall boots every one of the 198 legal
// configurations on a perfect network and serves one call through it —
// the breadth guarantee behind "a single configurable system".
func TestAllConfigurationsServeACall(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 198 systems")
	}
	for i, cfg := range config.Enumerate() {
		cfg := cfg
		t.Run(fmt.Sprintf("%03d_%s", i, cfg), func(t *testing.T) {
			t.Parallel()
			cfg.RetransTimeout = 10 * time.Millisecond
			cfg.TimeBound = 5 * time.Second

			sys := mrpc.NewSystem(mrpc.SystemOptions{})
			defer sys.Stop()
			if _, err := sys.AddServer(1, cfg, func() mrpc.App { return &ckApp{} }); err != nil {
				t.Fatal(err)
			}
			client, err := sys.AddClient(100, cfg)
			if err != nil {
				t.Fatal(err)
			}
			group := sys.Group(1)

			if cfg.Call == config.CallAsynchronous {
				id, err := client.CallAsync(1, []byte("x"), group)
				if err != nil {
					t.Fatal(err)
				}
				reply, status, err := client.Collect(id)
				if err != nil || status != mrpc.StatusOK || string(reply) != "x" {
					t.Fatalf("async: %v %v %q", status, err, reply)
				}
				return
			}
			reply, status, err := client.Call(1, []byte("x"), group)
			if err != nil || status != mrpc.StatusOK || string(reply) != "x" {
				t.Fatalf("sync: %v %v %q", status, err, reply)
			}
		})
	}
}

func TestAsyncCallFacade(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.Call = mrpc.CallAsynchronous
	cfg.RetransTimeout = 10 * time.Millisecond
	app := &ckApp{}
	if _, err := sys.AddServer(1, cfg, func() mrpc.App { return app }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1)

	// Pipeline several calls, collect out of order.
	var ids []mrpc.CallID
	for i := 0; i < 5; i++ {
		id, err := client.CallAsync(1, []byte{byte('a' + i)}, group)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := len(ids) - 1; i >= 0; i-- {
		reply, status, err := client.Collect(ids[i])
		if err != nil || status != mrpc.StatusOK {
			t.Fatalf("collect %d: %v %v", i, status, err)
		}
		if string(reply) != string([]byte{byte('a' + i)}) {
			t.Fatalf("collect %d: reply %q", i, reply)
		}
	}
}

func TestCallAsyncRejectedOnSyncConfig(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	client, err := sys.AddClient(100, mrpc.ExactlyOnce())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CallAsync(1, nil, sys.Group(1)); err == nil {
		t.Fatal("CallAsync accepted on a synchronous configuration")
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	if _, err := sys.AddClient(1, mrpc.ExactlyOnce()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddClient(1, mrpc.ExactlyOnce()); err == nil {
		t.Fatal("duplicate node id accepted")
	}
}

func TestInvalidConfigRejectedAtAddNode(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	bad := mrpc.ExactlyOnce()
	bad.Ordering = mrpc.OrderTotal
	bad.Reliable = false
	if _, err := sys.AddClient(1, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAddServerRequiresApp(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	if _, err := sys.AddServer(1, mrpc.ExactlyOnce(), nil); err == nil {
		t.Fatal("AddServer accepted a nil app factory")
	}
}

func TestCallOnDownNode(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	client, err := sys.AddClient(100, mrpc.ExactlyOnce())
	if err != nil {
		t.Fatal(err)
	}
	client.Crash()
	if _, status, err := client.Call(1, nil, sys.Group(1)); err == nil || status != mrpc.StatusAborted {
		t.Fatalf("call on down node: %v %v", status, err)
	}
	if err := client.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := client.Recover(); err == nil {
		t.Fatal("Recover on an up node accepted")
	}
}

func TestServerCrashRecoverServesAgain(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 5 * time.Millisecond
	server, err := sys.AddServer(1, cfg, func() mrpc.App { return &ckApp{} })
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1)

	if _, status, _ := client.Call(1, []byte("a"), group); status != mrpc.StatusOK {
		t.Fatalf("pre-crash call: %v", status)
	}

	server.Crash()
	if !server.Down() {
		t.Fatal("server not down")
	}
	// A call issued while the server is down completes after recovery via
	// retransmission.
	done := make(chan mrpc.Status, 1)
	go func() {
		_, status, _ := client.Call(1, []byte("b"), group)
		done <- status
	}()
	time.Sleep(20 * time.Millisecond)
	if err := server.Recover(); err != nil {
		t.Fatal(err)
	}
	select {
	case status := <-done:
		if status != mrpc.StatusOK {
			t.Fatalf("post-recovery call: %v", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed after server recovery")
	}
}

// TestTotalOrderRecoveredLeaderRejoins crashes and recovers the total-order
// leader (the highest id). Its state is fresh after recovery, so without a
// rejoin round it numbered the next call 1 again, and the two survivors,
// already past slot 2, dropped the call as served.
func TestTotalOrderRecoveredLeaderRejoins(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{Membership: mrpc.MembershipOracle})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.Ordering = mrpc.OrderTotal
	cfg.RetransTimeout = 5 * time.Millisecond
	group := sys.Group(1, 2, 3)
	apps := make(map[mrpc.ProcID]*ckApp)
	var leader *mrpc.Node
	for _, id := range group {
		app := &ckApp{}
		apps[id] = app
		n, err := sys.AddServer(id, cfg, func() mrpc.App { return app })
		if err != nil {
			t.Fatal(err)
		}
		leader = n
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	executedBy := func(ids []mrpc.ProcID, args string) bool {
		for _, id := range ids {
			found := false
			for _, a := range apps[id].executed() {
				found = found || a == args
			}
			if !found {
				return false
			}
		}
		return true
	}
	waitExecuted := func(ids []mrpc.ProcID, args string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !executedBy(ids, args) {
			if time.Now().After(deadline) {
				t.Fatalf("call %q not executed by all of %v", args, ids)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, args := range []string{"a", "b"} {
		if _, status, _ := client.Call(1, []byte(args), group); status != mrpc.StatusOK {
			t.Fatalf("call %q: %v", args, status)
		}
	}
	waitExecuted(group, "b")
	leader.Crash()
	if err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, status, _ := client.Call(1, []byte("c"), group); status != mrpc.StatusOK {
		t.Fatalf("call after the leader's rejoin: %v", status)
	}
	waitExecuted(sys.Group(1, 2), "c")
}

func TestMembershipOracleCompletesCallsOnFailure(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{Membership: mrpc.MembershipOracle})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	cfg.AcceptanceLimit = mrpc.AcceptAll
	group := sys.Group(1, 2)
	var servers []*mrpc.Node
	for _, id := range group {
		s, err := sys.AddServer(id, cfg, func() mrpc.App { return &ckApp{} })
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Crash server 2 mid-call: the oracle's failure notification must
	// complete the accept-ALL call with server 1's reply alone.
	servers[1].Crash()
	_, status, err := client.Call(1, []byte("x"), group)
	if err != nil || status != mrpc.StatusOK {
		t.Fatalf("call with failed member: %v %v", status, err)
	}
}

func TestMembershipDetectorEndToEnd(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Membership:        mrpc.MembershipDetector,
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectAfter:      25 * time.Millisecond,
	})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	cfg.AcceptanceLimit = mrpc.AcceptAll
	group := sys.Group(1, 2)
	var servers []*mrpc.Node
	for _, id := range group {
		s, err := sys.AddServer(id, cfg, func() mrpc.App { return &ckApp{} })
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	servers[1].Crash()
	// The detector needs SuspectAfter of silence to declare the failure;
	// the pending accept-ALL call then completes.
	done := make(chan mrpc.Status, 1)
	go func() {
		_, status, _ := client.Call(1, []byte("x"), group)
		done <- status
	}()
	select {
	case status := <-done:
		if status != mrpc.StatusOK {
			t.Fatalf("status = %v", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("detector never completed the call")
	}
}

func TestFIFOPipelinedAsyncClients(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Net: mrpc.NetParams{
			Seed:     3,
			MinDelay: 100 * time.Microsecond,
			MaxDelay: 3 * time.Millisecond, // heavy reordering
		},
	})
	defer sys.Stop()

	cfg := mrpc.ExactlyOnce()
	cfg.Call = mrpc.CallAsynchronous
	cfg.Ordering = mrpc.OrderFIFO
	cfg.RetransTimeout = 10 * time.Millisecond
	app := &ckApp{}
	if _, err := sys.AddServer(1, cfg, func() mrpc.App { return app }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1)

	// Pipeline 20 calls without waiting: the network reorders them, FIFO
	// Order must still execute them in issue order.
	const n = 20
	var ids []mrpc.CallID
	for i := 0; i < n; i++ {
		id, err := client.CallAsync(1, []byte(fmt.Sprintf("%02d", i)), group)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, status, _ := client.Collect(id); status != mrpc.StatusOK {
			t.Fatalf("collect: %v", status)
		}
	}
	got := app.executed()
	if len(got) != n {
		t.Fatalf("executed %d, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != fmt.Sprintf("%02d", i) {
			t.Fatalf("execution order %v violates FIFO at %d", got, i)
		}
	}
}

func TestEncodeOnWireEndToEnd(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Net: mrpc.NetParams{EncodeOnWire: true},
	})
	defer sys.Stop()
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	app := &ckApp{}
	if _, err := sys.AddServer(1, cfg, func() mrpc.App { return app }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reply, status, err := client.Call(1, []byte("marshalled"), sys.Group(1))
	if err != nil || status != mrpc.StatusOK || string(reply) != "marshalled" {
		t.Fatalf("wire-encoded call: %v %v %q", status, err, reply)
	}
}

func TestAtMostOnceStateSurvivesCrashViaCheckpoint(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()

	cfg := mrpc.AtMostOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	server, err := sys.AddServer(1, cfg, func() mrpc.App { return &ckApp{} })
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1)

	for i := 0; i < 3; i++ {
		if _, status, _ := client.Call(1, []byte{byte(i)}, group); status != mrpc.StatusOK {
			t.Fatalf("call %d failed", i)
		}
	}
	server.Crash()
	if err := server.Recover(); err != nil {
		t.Fatal(err)
	}
	app := server.App().(*ckApp)
	app.mu.Lock()
	n := app.n
	app.mu.Unlock()
	if n != 3 {
		t.Fatalf("restored counter = %d, want 3 (checkpoint restored into fresh app)", n)
	}
}

func TestNodeAccessors(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	cfg := mrpc.ExactlyOnce()
	node, err := sys.AddServer(7, cfg, func() mrpc.App { return &ckApp{} })
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != 7 {
		t.Fatal("ID")
	}
	if node.Config().String() != cfg.String() {
		t.Fatal("Config")
	}
	if node.App() == nil || node.Composite() == nil {
		t.Fatal("App/Composite")
	}
	if _, ok := sys.Node(7); !ok {
		t.Fatal("Node lookup")
	}
	if _, ok := sys.Node(99); ok {
		t.Fatal("phantom node")
	}
	if sys.Store() == nil || sys.Clock() == nil || sys.Sim() == nil {
		t.Fatal("system accessors")
	}
}
