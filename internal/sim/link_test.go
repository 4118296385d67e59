package sim

import (
	"testing"
	"testing/quick"
)

func TestLinkSerialization(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 4) // 16 B/cycle, 4-cycle latency
	var at Cycle
	l.Send(64, func() { at = k.Now() }) // 4 cycles occupancy + 4 latency
	k.Run()
	if at != 8 {
		t.Fatalf("delivery at %d, want 8", at)
	}
}

func TestLinkQueueing(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 0)
	var first, second Cycle
	l.Send(64, func() { first = k.Now() })  // occupies 0..4
	l.Send(64, func() { second = k.Now() }) // occupies 4..8
	k.Run()
	if first != 4 || second != 8 {
		t.Fatalf("deliveries at %d,%d; want 4,8", first, second)
	}
}

func TestLinkFractionalBandwidthRoundsUp(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 9, 0) // crossbar port: 144-bit @2GHz = 9 B per 4GHz cycle
	var at Cycle
	l.Send(80, func() { at = k.Now() }) // ceil(80/9) = 9
	k.Run()
	if at != 9 {
		t.Fatalf("delivery at %d, want 9", at)
	}
}

func TestLinkFlitAccounting(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 20, 1)
	l.Send(16, nil) // 1 flit
	l.Send(17, nil) // 2 flits
	l.Send(80, nil) // 5 flits
	k.Run()
	if l.FlitsTransferred != 8 {
		t.Fatalf("flits = %d, want 8", l.FlitsTransferred)
	}
	if l.BytesTransferred != 113 {
		t.Fatalf("bytes = %d, want 113", l.BytesTransferred)
	}
}

func TestLinkIdleGapDoesNotAccumulate(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 0)
	l.Send(16, nil) // occupies cycle 0..1
	k.Schedule(100, func() {
		var at Cycle
		l.Send(16, func() { at = k.Now() })
		k.Schedule(50, func() {
			if at != 101 {
				t.Errorf("post-idle delivery at %d, want 101", at)
			}
		})
	})
	k.Run()
}

// Property: for any sequence of packet sizes, total busy time equals the
// sum of per-packet occupancies, and deliveries are in order.
func TestLinkBusyProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		k := NewKernel()
		l := NewLink(k, 4, 2)
		var want Cycle
		var lastDelivery Cycle = -1
		ordered := true
		for _, s := range sizes {
			n := int(s)
			if n == 0 {
				n = 1
			}
			want += Cycle((n + 3) / 4)
			l.Send(n, func() {
				if k.Now() < lastDelivery {
					ordered = false
				}
				lastDelivery = k.Now()
			})
		}
		k.Run()
		return l.Busy == want && ordered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLinkSendEventEarly pins that an early send is accounted like any
// other transfer and delivers ahead of a same-cycle normal-lane event.
func TestLinkSendEventEarly(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 4)
	var got []int64
	r := &recorder{out: &got}
	k.AtEvent(5, r, EventArg{N: 2})
	if at := l.SendEventEarly(16, r, EventArg{N: 1}); at != 5 {
		t.Fatalf("delivery at %d, want 5 (1 cycle occupancy + 4 latency)", at)
	}
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", got)
	}
	if l.BytesTransferred != 16 || l.Busy != 1 {
		t.Fatalf("accounting: bytes=%d busy=%d", l.BytesTransferred, l.Busy)
	}
}
