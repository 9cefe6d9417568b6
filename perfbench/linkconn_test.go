package main

import (
	"net"
	"testing"
	"time"
)

// nullConn completes every read and write at once, so a linkConn over it is
// limited only by its pacer.
type nullConn struct{ net.Conn }

func (nullConn) Read(p []byte) (int, error)  { return len(p), nil }
func (nullConn) Write(p []byte) (int, error) { return len(p), nil }

// TestPacerHoldsRate moves bytes through a paced link in both directions and
// checks the transfer takes the configured byte rate's time: never faster,
// and not much slower.
func TestPacerHoldsRate(t *testing.T) {
	const (
		rate  = 4e6 // bytes/s
		total = 400_000
		chunk = 16 << 10
	)
	want := time.Duration(total / rate * float64(time.Second))
	for _, dir := range []string{"write", "read"} {
		c := newLinkConn(nullConn{}, rate)
		buf := make([]byte, chunk)
		start := time.Now()
		for moved := 0; moved < total; {
			n := min(chunk, total-moved)
			var err error
			if dir == "write" {
				_, err = c.Write(buf[:n])
			} else {
				_, err = c.Read(buf[:n])
			}
			if err != nil {
				t.Fatal(err)
			}
			moved += n
		}
		got := time.Since(start)
		if got < want*99/100 || got > want*3/2+20*time.Millisecond {
			t.Errorf("%s: %d bytes at %g B/s took %v, want about %v", dir, total, rate, got, want)
		}
		tot := c.totals()
		if moved := tot.upBytes + tot.downBytes; moved != total {
			t.Errorf("%s: counted %d bytes, want %d", dir, moved, total)
		}
		if held := time.Duration(tot.paceNs); held < want*9/10 {
			t.Errorf("%s: pacer held %v, want about %v", dir, held, want)
		}
	}
}

// TestPacerGrantsNoBurst checks an idle link does not bank credit: a
// transfer after a pause still takes its full serialisation time.
func TestPacerGrantsNoBurst(t *testing.T) {
	p := &pacer{rate: 1e6}
	now := time.Now()
	if w := p.reserve(now, 1000); w != time.Millisecond {
		t.Fatalf("first 1000 B at 1 MB/s waits %v, want 1ms", w)
	}
	// Booked behind the first transfer.
	if w := p.reserve(now, 1000); w != 2*time.Millisecond {
		t.Fatalf("queued 1000 B waits %v, want 2ms", w)
	}
	later := now.Add(time.Second)
	if w := p.reserve(later, 1000); w != time.Millisecond {
		t.Fatalf("after an idle second 1000 B waits %v, want 1ms", w)
	}
}

func TestUnshapedLinkCountsOnly(t *testing.T) {
	c := newLinkConn(nullConn{}, 0)
	buf := make([]byte, 1000)
	c.Write(buf)
	c.Write(buf[:10])
	c.Read(buf)
	tot := c.totals()
	if tot.upBytes != 1010 || tot.upCalls != 2 || tot.downBytes != 1000 || tot.downCalls != 1 || tot.paceNs != 0 {
		t.Fatalf("unshaped link totals = %+v", tot)
	}
}
