//go:build mrpcdebug

package core

// Debug-build poison and check functions for core's pooled types; the
// checking pool itself is internal/pool's. Enable with:
//
//	go test -tags mrpcdebug ./internal/pool ./internal/core ./internal/event

import (
	"mrpc/internal/msg"
	"mrpc/internal/pool"
)

const (
	poisonInt   = -0x6b6b6b6b // fits int32 and wider
	poisonInt64 = -0x6b6b6b6b6b6b6b6b
	poisonOp    = msg.UserOp(0x6b) // UserOp is a uint8
)

// poisonedNetMsg is the sentinel a pooled NetEvent's Msg field points at.
var poisonedNetMsg = new(msg.NetMsg)

func init() { pool.Register(poison, checkPoison) }

// poison scribbles the sentinel into one field per pooled type — a field
// the release path scrubs to zero, never one it deliberately retains
// (ClientRecord.Sem, the Pending/acks backing arrays).
func poison(x any) {
	switch v := x.(type) {
	case *ClientRecord:
		v.NRes = poisonInt
	case *ServerRecord:
		v.Client = msg.ProcID(poisonInt)
	case *NetEvent:
		v.Msg = poisonedNetMsg
	case *msg.UserMsg:
		v.Type = poisonOp
	case *msg.CallKey:
		v.ID = poisonInt64
	case *msg.CallID:
		*v = poisonInt64
	case *relEntry:
		v.id = poisonInt64
	}
}

// checkPoison reports whether the sentinel survived the object's stay in
// the pool (or the object is fresh from New) and restores the zero value.
func checkPoison(x any) bool {
	switch v := x.(type) {
	case *ClientRecord:
		return pool.Restore(&v.NRes, poisonInt)
	case *ServerRecord:
		return pool.Restore(&v.Client, msg.ProcID(poisonInt))
	case *NetEvent:
		return pool.Restore(&v.Msg, poisonedNetMsg)
	case *msg.UserMsg:
		return pool.Restore(&v.Type, poisonOp)
	case *msg.CallKey:
		return pool.Restore(&v.ID, poisonInt64)
	case *msg.CallID:
		return pool.Restore(v, poisonInt64)
	case *relEntry:
		return pool.Restore(&v.id, poisonInt64)
	}
	return true
}
