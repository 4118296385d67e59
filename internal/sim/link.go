package sim

import "math"

// Link models a bandwidth-limited, fixed-latency, in-order channel such as
// an HMC serial lane bundle, a vault's TSV bundle, or a crossbar port.
//
// A transfer of n bytes occupies the link for ceil(n/BytesPerCycle)
// cycles; transfers queue behind one another (store-and-forward), and the
// payload is delivered Latency cycles after its occupancy ends. The model
// therefore captures both serialization delay and queueing delay, the two
// effects the paper's bandwidth arguments rest on.
type Link struct {
	k *Kernel

	// BytesPerCycle is the link bandwidth expressed in the kernel's base
	// clock. 80 GB/s at a 4 GHz base clock is 20 bytes/cycle.
	BytesPerCycle float64
	// Latency is the propagation delay added after serialization.
	Latency Cycle

	nextFree Cycle

	// BytesTransferred accumulates total payload bytes; FlitsTransferred
	// counts 16-byte flits (rounded up per packet), matching how the
	// paper's balanced-dispatch counters measure traffic.
	BytesTransferred uint64
	FlitsTransferred uint64
	// Busy accumulates cycles during which the link was occupied.
	Busy Cycle
}

// FlitBytes is the flit size used for link traffic accounting (HMC-style
// 16-byte flits).
const FlitBytes = 16

// NewLink creates a link scheduled on k.
func NewLink(k *Kernel, bytesPerCycle float64, latency Cycle) *Link {
	if bytesPerCycle <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{k: k, BytesPerCycle: bytesPerCycle, Latency: latency}
}

// Send queues a transfer of the given number of bytes and invokes done
// (if non-nil) when the payload has been delivered. It returns the cycle
// at which delivery will occur. Closure variant for cold paths; hot
// paths use SendEvent.
func (l *Link) Send(bytes int, done func()) Cycle {
	if done == nil {
		return l.SendEvent(bytes, nil, EventArg{})
	}
	return l.SendEvent(bytes, funcEvent(done), EventArg{})
}

// SendEvent queues a transfer of the given number of bytes and delivers
// arg to h (if non-nil) when the payload arrives. It returns the cycle
// at which delivery will occur.
func (l *Link) SendEvent(bytes int, h Handler, arg EventArg) Cycle {
	at := l.occupy(bytes)
	if h != nil {
		l.k.AtEvent(at, h, arg)
	}
	return at
}

// SendEventEarly is SendEvent delivering into the kernel's early lane
// (see Kernel.AtEventEarly): the arrival dispatches before every
// normal-lane event of its cycle. The off-chip request link uses it.
func (l *Link) SendEventEarly(bytes int, h Handler, arg EventArg) Cycle {
	at := l.occupy(bytes)
	if h != nil {
		l.k.AtEventEarly(at, h, arg)
	}
	return at
}

// occupy accounts a transfer of bytes on the link — serialization
// behind earlier transfers, then the propagation latency — and returns
// its delivery cycle.
func (l *Link) occupy(bytes int) Cycle {
	if bytes <= 0 {
		bytes = 1
	}
	occ := Cycle(math.Ceil(float64(bytes) / l.BytesPerCycle))
	start := l.k.Now()
	if l.nextFree > start {
		start = l.nextFree
	}
	end := start + occ
	l.nextFree = end
	l.Busy += occ
	l.BytesTransferred += uint64(bytes)
	l.FlitsTransferred += uint64((bytes + FlitBytes - 1) / FlitBytes)
	return end + l.Latency
}
