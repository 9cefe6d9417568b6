package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// linkConn is the net.Conn the benchmark hands to link.NewConn on the client
// side of every link. It counts bytes and calls in each direction and, with
// a positive rate, paces each direction to that many bytes per second the
// way a shaped WAN link serialises a transfer: n bytes take n/rate seconds
// of link time, booked back to back.
type linkConn struct {
	net.Conn
	up, down direction
}

// direction is one half of a link's accounting.
type direction struct {
	pace   *pacer // nil leaves the direction unshaped
	bytes  atomic.Int64
	calls  atomic.Int64
	paceNs atomic.Int64 // time held by the pacer
}

func newLinkConn(raw net.Conn, rate float64) *linkConn {
	c := &linkConn{Conn: raw}
	if rate > 0 {
		c.up.pace = &pacer{rate: rate}
		c.down.pace = &pacer{rate: rate}
	}
	return c
}

// Read holds bytes that already arrived until the link would have
// delivered them.
func (c *linkConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.count(n)
	c.down.hold(time.Now(), n)
	return n, err
}

// Write holds bytes back until the link would have carried them, so the
// peer receives them no earlier than the paced link would deliver them.
func (c *linkConn) Write(p []byte) (int, error) {
	c.up.hold(time.Now(), len(p))
	n, err := c.Conn.Write(p)
	c.up.count(n)
	return n, err
}

func (d *direction) count(n int) {
	if n > 0 {
		d.bytes.Add(int64(n))
		d.calls.Add(1)
	}
}

// hold books n bytes on the direction's pacer at now and sleeps until the
// link has carried them.
func (d *direction) hold(now time.Time, n int) {
	if d.pace == nil || n <= 0 {
		return
	}
	if wait := d.pace.reserve(now, n); wait > 0 {
		time.Sleep(wait)
		d.paceNs.Add(wait.Nanoseconds())
	}
}

// pacer serialises transfers over a link of a fixed byte rate. It grants no
// burst credit: an idle link starts the next transfer at the current time.
type pacer struct {
	rate float64 // bytes per second

	mu   sync.Mutex
	free time.Time // when the link finishes its booked transfers
}

// reserve books n bytes starting no earlier than now and returns how long
// the caller must wait for them to finish crossing the link.
func (p *pacer) reserve(now time.Time, n int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := p.free
	if start.Before(now) {
		start = now
	}
	p.free = start.Add(time.Duration(float64(n) / p.rate * 1e9))
	return p.free.Sub(now)
}

// linkTotals is a snapshot of one link's counters.
type linkTotals struct {
	upBytes, downBytes, upCalls, downCalls, paceNs int64
}

func (c *linkConn) totals() linkTotals {
	return linkTotals{
		upBytes:   c.up.bytes.Load(),
		downBytes: c.down.bytes.Load(),
		upCalls:   c.up.calls.Load(),
		downCalls: c.down.calls.Load(),
		paceNs:    c.up.paceNs.Load() + c.down.paceNs.Load(),
	}
}

func (a linkTotals) sub(b linkTotals) linkTotals {
	return linkTotals{
		upBytes:   a.upBytes - b.upBytes,
		downBytes: a.downBytes - b.downBytes,
		upCalls:   a.upCalls - b.upCalls,
		downCalls: a.downCalls - b.downCalls,
		paceNs:    a.paceNs - b.paceNs,
	}
}
