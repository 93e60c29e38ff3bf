package msg

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewGroupNormalizes(t *testing.T) {
	g := NewGroup(3, 1, 2, 3, 1)
	if len(g) != 3 {
		t.Fatalf("len = %d, want 3 (deduplicated)", len(g))
	}
	for i := 0; i < len(g)-1; i++ {
		if g[i] >= g[i+1] {
			t.Fatalf("group not sorted: %v", g)
		}
	}
}

func TestGroupContains(t *testing.T) {
	g := NewGroup(1, 5, 9)
	if !g.Contains(5) || g.Contains(4) {
		t.Fatalf("Contains misbehaved on %v", g)
	}
}

func TestGroupLeader(t *testing.T) {
	g := NewGroup(2, 7, 4)
	if got := g.Leader(nil); got != 7 {
		t.Fatalf("leader = %d, want 7 (largest id)", got)
	}
	if got := g.Leader(map[ProcID]bool{7: true}); got != 4 {
		t.Fatalf("leader with 7 down = %d, want 4", got)
	}
	if got := g.Leader(map[ProcID]bool{2: true, 4: true, 7: true}); got != 0 {
		t.Fatalf("leader with all down = %d, want 0", got)
	}
}

func TestGroupCloneIndependent(t *testing.T) {
	g := NewGroup(1, 2)
	c := g.Clone()
	c[0] = 99
	if g[0] == 99 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestGroupEqual(t *testing.T) {
	if !NewGroup(1, 2).Equal(NewGroup(2, 1)) {
		t.Fatal("normalized equal groups reported unequal")
	}
	if NewGroup(1, 2).Equal(NewGroup(1, 2, 3)) {
		t.Fatal("different groups reported equal")
	}
	if NewGroup(1, 3).Equal(NewGroup(1, 2)) {
		t.Fatal("different members reported equal")
	}
}

func TestNetMsgClone(t *testing.T) {
	m := &NetMsg{
		Type:   OpCall,
		ID:     7,
		Client: 3,
		Op:     5,
		Args:   []byte{1, 2, 3},
		Server: NewGroup(1, 2),
		Sender: 3,
		Inc:    2,
		AckID:  6,
		Order:  4,
		VC:     VClock{3: 1},
		Relay:  2,
		Batch:  []*NetMsg{{Type: OpAck}},
	}
	// Clone copies field by field, so every exported field must be set
	// here for the comparison below to catch one it forgets.
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Fatalf("fixture leaves %s zero", f.Name)
		}
	}
	m.Freeze()
	c := m.Clone()
	if c.Frozen() {
		t.Fatal("Clone is frozen")
	}
	want := *m
	want.frozen = 0
	if !reflect.DeepEqual(c, &want) {
		t.Fatalf("Clone = %+v, want %+v", c, &want)
	}
	c.Args[0] = 99
	c.Server[0] = 42
	if m.Args[0] == 99 || m.Server[0] == 42 {
		t.Fatal("Clone shares Args or Server storage")
	}
}

func TestCallKey(t *testing.T) {
	m := &NetMsg{ID: 9, Client: 4}
	if k := m.Key(); k.Client != 4 || k.ID != 9 {
		t.Fatalf("key = %+v", k)
	}
	if s := (CallKey{Client: 4, ID: 9}).String(); s != "4:9" {
		t.Fatalf("key string = %q", s)
	}
}

func TestEnumStrings(t *testing.T) {
	if OpCall.String() != "CALL" || OpReply.String() != "REPLY" ||
		OpAck.String() != "ACK" || OpOrder.String() != "ORDER" ||
		OpHeartbeat.String() != "HEARTBEAT" {
		t.Fatal("NetOp names wrong")
	}
	if !strings.Contains(NetOp(42).String(), "42") {
		t.Fatal("unknown NetOp string")
	}
	if StatusWaiting.String() != "WAITING" || StatusOK.String() != "OK" ||
		StatusTimeout.String() != "TIMEOUT" || StatusAborted.String() != "ABORTED" {
		t.Fatal("Status names wrong")
	}
	if !strings.Contains(Status(42).String(), "42") {
		t.Fatal("unknown Status string")
	}
}

func TestNetMsgString(t *testing.T) {
	m := &NetMsg{Type: OpCall, ID: 1, Client: 2, Sender: 3, Args: []byte("abc")}
	s := m.String()
	if !strings.Contains(s, "CALL") || !strings.Contains(s, "2:1") {
		t.Fatalf("String() = %q", s)
	}
}
