package interconnect

import "specrt/internal/sim"

// ----- Ideal -----

// idealNet is the paper's constant-hop network: stateless, contention-free,
// and shared by value (it allocates nothing per machine). Send returns the
// caller's base latency unchanged, which is what makes the default
// configuration reproduce the pre-interconnect simulator bit-for-bit.
type idealNet struct{}

func (idealNet) Kind() Kind                                      { return Ideal }
func (idealNet) Send(from, to int, now, base sim.Time) sim.Time  { return base }
func (idealNet) MinLatency(from, to int, base sim.Time) sim.Time { return base }
func (idealNet) Reset()                                          {}
func (idealNet) Links() []sim.Server                             { return nil }
func (idealNet) Stats() Stats                                    { return Stats{} }

// ----- Bus -----

// busNet serializes every remote message on one shared medium. Delivery
// still takes the flat base latency; the bus only adds the wait for the
// medium. Self-sends are local loopbacks and bypass the bus.
type busNet struct {
	occ  sim.Time
	link []sim.Server // exactly one; a slice for the shared helpers
	msgs uint64
}

func newBus(c Config) *busNet {
	b := &busNet{occ: c.LinkOcc, link: make([]sim.Server, 1)}
	b.link[0].TrackDepth(linkDepthRing)
	return b
}

func (b *busNet) Kind() Kind { return Bus }

func (b *busNet) Send(from, to int, now, base sim.Time) sim.Time {
	if from == to {
		return base
	}
	b.msgs++
	start := b.link[0].Acquire(now, b.occ)
	return (start - now) + base
}

func (b *busNet) MinLatency(from, to int, base sim.Time) sim.Time { return base }
func (b *busNet) Reset()                                          { resetLinks(b.link); b.msgs = 0 }
func (b *busNet) Links() []sim.Server                             { return b.link }
func (b *busNet) Stats() Stats                                    { return aggregate(b.link, b.msgs) }

// ----- Crossbar -----

// xbarNet gives each destination node its own output port: messages
// contend only when they target the same node (the home hotspot case).
type xbarNet struct {
	occ   sim.Time
	ports []sim.Server // one per destination node
	msgs  uint64
}

func newCrossbar(c Config) *xbarNet {
	x := &xbarNet{occ: c.LinkOcc, ports: make([]sim.Server, c.Nodes)}
	for i := range x.ports {
		x.ports[i].TrackDepth(linkDepthRing)
	}
	return x
}

func (x *xbarNet) Kind() Kind { return Crossbar }

func (x *xbarNet) Send(from, to int, now, base sim.Time) sim.Time {
	if from == to {
		return base
	}
	x.msgs++
	start := x.ports[to].Acquire(now, x.occ)
	return (start - now) + base
}

func (x *xbarNet) MinLatency(from, to int, base sim.Time) sim.Time { return base }
func (x *xbarNet) Reset()                                          { resetLinks(x.ports); x.msgs = 0 }
func (x *xbarNet) Links() []sim.Server                             { return x.ports }
func (x *xbarNet) Stats() Stats                                    { return aggregate(x.ports, x.msgs) }

// ----- Mesh -----

// meshNet is a 2D mesh with deterministic XY routing: a message first
// travels along X, then along Y, crossing |dx|+|dy| directed links and
// queueing at each. Unloaded latency is therefore distance-dependent —
// hops * HopLat — rather than the flat base cost; a neighbor is cheaper
// than the paper's average hop, a corner-to-corner path dearer. Nodes map
// row-major onto the configured WxH rectangle, or onto the smallest
// near-square grid that holds them when no shape is given.
type meshNet struct {
	w, h     int
	hop, occ sim.Time
	// links holds the directed channels in four blocks: +x, -x, +y, -y.
	links []sim.Server
	msgs  uint64
}

func newMesh(c Config) *meshNet {
	w, h := c.MeshW, c.MeshH
	if w == 0 {
		w = 1
		for w*w < c.Nodes {
			w++
		}
		h = (c.Nodes + w - 1) / w
	}
	m := &meshNet{w: w, h: h, hop: c.HopLat, occ: c.LinkOcc}
	// (w-1)*h horizontal channels and w*(h-1) vertical ones, each
	// directed both ways.
	m.links = make([]sim.Server, 2*(w-1)*h+2*w*(h-1))
	for i := range m.links {
		m.links[i].TrackDepth(linkDepthRing)
	}
	return m
}

func (m *meshNet) Kind() Kind { return Mesh }

// xy returns node n's grid coordinates.
func (m *meshNet) xy(n int) (x, y int) { return n % m.w, n / m.w }

// linkX returns the directed link leaving (x,y) toward x+1 (pos) or x-1.
func (m *meshNet) linkX(x, y int, pos bool) *sim.Server {
	if !pos {
		x-- // the -x channel of segment [x-1, x]
	}
	idx := y*(m.w-1) + x
	if !pos {
		idx += (m.w - 1) * m.h
	}
	return &m.links[idx]
}

// linkY returns the directed link leaving (x,y) toward y+1 (pos) or y-1.
func (m *meshNet) linkY(x, y int, pos bool) *sim.Server {
	if !pos {
		y--
	}
	idx := y*m.w + x
	base := 2 * (m.w - 1) * m.h
	if !pos {
		base += m.w * (m.h - 1)
	}
	return &m.links[base+idx]
}

func (m *meshNet) Send(from, to int, now, base sim.Time) sim.Time {
	if from == to {
		return base
	}
	m.msgs++
	x0, y0 := m.xy(from)
	x1, y1 := m.xy(to)
	t := now
	for x0 != x1 {
		pos := x1 > x0
		start := m.linkX(x0, y0, pos).Acquire(t, m.occ)
		t = start + m.hop
		if pos {
			x0++
		} else {
			x0--
		}
	}
	for y0 != y1 {
		pos := y1 > y0
		start := m.linkY(x0, y0, pos).Acquire(t, m.occ)
		t = start + m.hop
		if pos {
			y0++
		} else {
			y0--
		}
	}
	return t - now
}

func (m *meshNet) MinLatency(from, to int, base sim.Time) sim.Time {
	if from == to {
		return base
	}
	x0, y0 := m.xy(from)
	x1, y1 := m.xy(to)
	return sim.Time(abs(x1-x0)+abs(y1-y0)) * m.hop
}

func (m *meshNet) Reset()              { resetLinks(m.links); m.msgs = 0 }
func (m *meshNet) Links() []sim.Server { return m.links }
func (m *meshNet) Stats() Stats        { return aggregate(m.links, m.msgs) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
