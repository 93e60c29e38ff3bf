package nettcp

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// peer is one outbound link: a bounded frame queue drained by a dedicated
// writer thread that owns the connection lifecycle (dial, handshake,
// reconnect with backoff). The SNIPPETS reconnect-client idiom, adapted:
// connection state lives entirely in the writer; senders only ever touch
// the queue.
type peer struct {
	to msg.ProcID
	q  chan []byte
	th *proc.Thread

	// mu guards conn and closed. conn is published here (the writer also
	// keeps it in a local) so shutdown can close it and unblock a stuck
	// write; closed stops both new enqueues and the adoption of a
	// connection a killed writer was still dialing.
	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// adopt publishes a freshly dialed connection. It reports false when the
// link is shutting down, in which case the caller must close c.
func (p *peer) adopt(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conn = c
	return true
}

func (p *peer) clearConn() {
	p.mu.Lock()
	p.conn = nil
	p.mu.Unlock()
}

// shutdown marks the link closed and closes any live connection, which
// unblocks a writer stuck in a backpressured write.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// runPeer is the writer loop for one outbound link. Frames come off the
// queue one at a time; the connection is (re)established lazily when a
// frame needs it. Failure policy, in line with the weak substrate
// contract: a failed dial drops the frame in hand AND drains the queue
// (so Quiesce never waits on a dead peer's backlog), then backs off
// exponentially; a failed write drops the frame, closes the connection,
// and redials when the next frame arrives. The buffered writer is flushed
// only when the queue is momentarily empty, so back-to-back frames
// coalesce into one syscall.
func (e *Endpoint) runPeer(p *peer, th *proc.Thread) {
	t := e.tr
	var (
		conn    net.Conn
		w       *bufio.Writer
		backoff = t.opts.RetryMin
		wasUp   bool // a connection has been established before
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var wire []byte
		select {
		case wire = <-p.q:
		case <-th.Killed():
			return
		}
		if th.IsKilled() {
			t.ledger.Drop()
			continue // drain fast; the empty-queue select above exits
		}
		if conn == nil {
			c, err := e.dial(p.to)
			if err == nil && !p.adopt(c) {
				c.Close()
				t.ledger.Drop()
				return
			}
			if err != nil {
				t.ledger.Drop()
			drain:
				for {
					select {
					case <-p.q:
						t.ledger.Drop()
					default:
						break drain
					}
				}
				select {
				case <-clock.After(t.clk, backoff):
				case <-th.Killed():
					return
				}
				backoff *= 2
				if backoff > t.opts.RetryMax {
					backoff = t.opts.RetryMax
				}
				continue
			}
			conn = c
			w = bufio.NewWriter(conn)
			backoff = t.opts.RetryMin
			if wasUp {
				t.reconnects.Add(1)
			}
			wasUp = true
		}
		err := writeFrame(w, wire)
		if err == nil && len(p.q) == 0 {
			err = w.Flush()
		}
		if err != nil {
			t.ledger.Drop()
			conn.Close()
			p.clearConn()
			conn, w = nil, nil
			continue
		}
		t.ledger.Done() // written: the frame has left our hands
	}
}

// dial connects to peer `to`, optionally wraps TLS, and runs the
// handshake: send our hello, read the listener's, verify it names the
// process we meant to reach (a stale or misconfigured peer map fails here,
// at connect time, instead of as silent misdelivery).
func (e *Endpoint) dial(to msg.ProcID) (net.Conn, error) {
	t := e.tr
	addr := t.Addr(to)
	if addr == "" {
		return nil, fmt.Errorf("nettcp: no address for process %d", to)
	}
	c, err := net.DialTimeout("tcp", addr, t.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if cfg := t.opts.ClientTLS; cfg != nil {
		// tls.Client does not derive ServerName from the address the way
		// tls.Dial does; fill it in from the dialed host so a bare RootCAs
		// config verifies against the peer's SAN.
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			cfg = cfg.Clone()
			if host, _, err := net.SplitHostPort(addr); err == nil {
				cfg.ServerName = host
			}
		}
		c = tls.Client(c, cfg)
	}
	c.SetDeadline(t.clk.Now().Add(t.opts.DialTimeout))
	if _, err := c.Write(appendHandshake(make([]byte, 0, handshakeLen), e.ID())); err != nil {
		c.Close()
		return nil, err
	}
	got, err := readHandshake(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	if got != to {
		c.Close()
		return nil, fmt.Errorf("%w: dialed process %d, listener claims %d", ErrBadHandshake, to, got)
	}
	c.SetDeadline(time.Time{})
	return c, nil
}
