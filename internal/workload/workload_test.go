package workload_test

import (
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/workload"
)

func testSystem(t *testing.T) (*mrpc.System, mrpc.OpID, mrpc.Group) {
	t.Helper()
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	t.Cleanup(sys.Stop)
	reg := mrpc.NewRegistry()
	echo := reg.Register("echo", func(_ *mrpc.Thread, args []byte) []byte { return args })
	group := sys.Group(1)
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	if _, err := sys.AddServer(1, cfg, func() mrpc.App { return reg }); err != nil {
		t.Fatal(err)
	}
	return sys, echo, group
}

func TestClosedLoopRun(t *testing.T) {
	sys, echo, group := testSystem(t)
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	var clients []*mrpc.Node
	for i := 0; i < 3; i++ {
		c, err := sys.AddClient(mrpc.ProcID(100+i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	res := workload.ClosedLoop{
		Op:      echo,
		Group:   group,
		Calls:   5,
		Payload: workload.SeqPayload(),
	}.Run(clients)

	if res.CallsRun != 15 || res.OK != 15 {
		t.Fatalf("result = %s", res)
	}
	if res.Latency.Count() != 15 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestPayloads(t *testing.T) {
	fixed := workload.FixedPayload([]byte("x"))
	if string(fixed(1, 0)) != "x" || string(fixed(2, 9)) != "x" {
		t.Fatal("FixedPayload")
	}
	seq := workload.SeqPayload()
	if string(seq(7, 3)) != "7:3" {
		t.Fatalf("SeqPayload = %q", seq(7, 3))
	}
}

func TestOpenLoopRun(t *testing.T) {
	sys, echo, group := testSystem(t)
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 10 * time.Millisecond
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	res := workload.OpenLoop{
		Op:       echo,
		Group:    group,
		Rate:     500,
		Duration: 100 * time.Millisecond,
	}.Run([]*mrpc.Node{client})

	if res.Offered == 0 || res.OK == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.OK+res.Shed+res.Timeout+res.Aborted+res.Errors != res.Offered {
		t.Fatalf("accounting mismatch: %+v", res)
	}
}

func TestOpenLoopDegenerate(t *testing.T) {
	res := workload.OpenLoop{}.Run(nil)
	if res.Offered != 0 || res.OK != 0 {
		t.Fatalf("degenerate run produced work: %+v", res)
	}
}
