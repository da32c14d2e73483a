package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestClientProbeCountsBytesExactly pushes known payloads both ways
// through a probed connection and checks the counters to the byte.
func TestClientProbeCountsBytesExactly(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	p := &clientProbe{Conn: near}
	defer p.Close()

	down := bytes.Repeat([]byte{7}, 100_003)
	go func() {
		far.Write(down)
		io.Copy(io.Discard, far)
	}()
	got := make([]byte, len(down))
	if _, err := io.ReadFull(p, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, down) {
		t.Fatal("payload corrupted through the probe")
	}
	for _, n := range []int{1, 4096, 65_537} {
		if _, err := p.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if r, w := p.read.Load(), p.written.Load(); r != 100_003 || w != 1+4096+65_537 {
		t.Fatalf("counted read=%d written=%d, want 100003 and %d", r, w, 1+4096+65_537)
	}
}

// TestPercentileExact checks the nearest-rank percentile on samples
// whose percentiles are known.
func TestPercentileExact(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 95, 95},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{42}, 95, 42},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// TestWindowP50 checks that windowP50 averages the medians of the
// aligned full windows only, and falls back to the whole phase's median
// when no full window fits.
func TestWindowP50(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		from   int
		walls  []time.Duration
		window int
		want   float64
	}{
		// Rounds 3..10 in windows of 2: round 3 comes before the first
		// boundary and round 10 starts a window the phase does not
		// fill, so the windows are rounds 4-5, 6-7 and 8-9, with
		// nearest-rank medians 5, 2 and 5.
		{3, ms(1, 5, 7, 2, 9, 5, 8, 1), 2, 4},
		// Two windows of 3 on two levels: medians 2 and 6.
		{0, ms(2, 1, 9, 6, 6, 5), 3, 4},
		{7, ms(3, 1, 2), 5, 2},
	}
	for _, c := range cases {
		if got := windowP50(&phase{from: c.from, walls: c.walls}, c.window); got != c.want {
			t.Errorf("windowP50(from %d, %v, %d) = %v, want %v", c.from, c.walls, c.window, got, c.want)
		}
	}
}
