// Package interconnect models the global network of the simulated CC-NUMA
// machine as a first-class, pluggable component. The paper itself uses a
// constant per-hop message latency (§5.1); that model is preserved as the
// Ideal topology and reproduces the flat hop cost bit-for-bit. The other
// topologies — a shared bus, a crossbar, and a 2D mesh with XY routing —
// add deterministic per-link FIFO queueing, so the hotspot and
// serialization effects the paper attributes to "all transactions for an
// element serialize at its home" (§3.2) become measurable instead of
// assumed.
//
// The model is deliberately lightweight: a message reserves every link on
// its path at send time using the same busy-until discipline the home
// directories use (sim.Server), and the accumulated start delays become
// its delivery latency. Links never reorder a (source, destination) pair's
// messages, preserving the per-pair FIFO assumption the speculation
// protocols rely on (see machine.SendToHome).
package interconnect

import (
	"fmt"
	"strconv"
	"strings"

	"specrt/internal/sim"
)

// Kind selects a network topology.
type Kind uint8

const (
	// Ideal is the paper's network: every message takes the flat one-way
	// hop latency, with no link state and no queueing. It reproduces the
	// pre-interconnect simulator cycle-for-cycle.
	Ideal Kind = iota
	// Bus shares one transmission medium between all nodes: every
	// remote message serializes on it.
	Bus
	// Crossbar gives every destination its own output port: messages
	// contend only when they target the same node.
	Crossbar
	// Mesh is a 2D mesh with deterministic XY routing: a message crosses
	// |dx|+|dy| links, queueing at each.
	Mesh
)

func (k Kind) String() string {
	switch k {
	case Ideal:
		return "ideal"
	case Bus:
		return "bus"
	case Crossbar:
		return "crossbar"
	case Mesh:
		return "mesh"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a topology flag value.
func KindByName(name string) (Kind, error) {
	switch name {
	case "ideal", "":
		return Ideal, nil
	case "bus":
		return Bus, nil
	case "crossbar", "xbar":
		return Crossbar, nil
	case "mesh":
		return Mesh, nil
	}
	return Ideal, fmt.Errorf("unknown topology %q (ideal|bus|crossbar|mesh)", name)
}

// MarshalText makes Kind render as its name in JSON (reproducer files).
func (k Kind) MarshalText() ([]byte, error) {
	if k > Mesh {
		return nil, fmt.Errorf("interconnect: bad kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses a topology name.
func (k *Kind) UnmarshalText(b []byte) error {
	got, err := KindByName(string(b))
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// Default per-link parameters. A hop latency of half the flat message cost
// makes the average mesh distance on a 16-node machine (~2 hops) land near
// the paper's MsgHop, and the occupancy is shorter than the home directory's
// message occupancy so links saturate only under genuinely bursty traffic.
const (
	DefaultHopLat  sim.Time = 35
	DefaultLinkOcc sim.Time = 8
)

// Config describes a network. The zero value is the Ideal topology.
type Config struct {
	Kind  Kind
	Nodes int
	// HopLat is the per-link traversal latency of the Mesh topology
	// (Bus and Crossbar deliver at the caller's flat base latency and
	// only add queueing). 0 selects DefaultHopLat.
	HopLat sim.Time
	// LinkOcc is how long a message occupies each link or port it
	// crosses; it is what produces queueing delay. 0 selects
	// DefaultLinkOcc.
	LinkOcc sim.Time
	// MeshW and MeshH give the Mesh topology an explicit rectangular
	// shape (ignored by the other kinds). Both zero selects the smallest
	// near-square grid holding Nodes, the historical default; otherwise
	// both must be set and W*H must cover Nodes. Wide machines use this
	// to study aspect ratio: a 64x16 mesh routes the same 1024 nodes
	// with very different X-channel pressure than a 32x32 one.
	MeshW, MeshH int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HopLat == 0 {
		c.HopLat = DefaultHopLat
	}
	if c.LinkOcc == 0 {
		c.LinkOcc = DefaultLinkOcc
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Kind > Mesh {
		return fmt.Errorf("interconnect: unknown topology kind %d", uint8(c.Kind))
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("interconnect: need at least one node, got %d", c.Nodes)
	}
	if c.HopLat < 0 || c.LinkOcc < 0 {
		return fmt.Errorf("interconnect: negative link parameters")
	}
	if (c.MeshW != 0) != (c.MeshH != 0) {
		return fmt.Errorf("interconnect: mesh shape needs both dimensions, got %dx%d", c.MeshW, c.MeshH)
	}
	if c.MeshW < 0 || c.MeshH < 0 {
		return fmt.Errorf("interconnect: negative mesh shape %dx%d", c.MeshW, c.MeshH)
	}
	if c.MeshW > 0 && c.MeshW*c.MeshH < c.Nodes {
		return fmt.Errorf("interconnect: %dx%d mesh holds %d nodes, need %d",
			c.MeshW, c.MeshH, c.MeshW*c.MeshH, c.Nodes)
	}
	return nil
}

// NodeCap returns the most nodes the configured topology can host, or 0
// for no limit. Only an explicitly shaped mesh is bounded; every other
// topology (and the auto-shaped mesh) sizes itself to Nodes.
func (c Config) NodeCap() int {
	if c.Kind == Mesh && c.MeshW > 0 {
		return c.MeshW * c.MeshH
	}
	return 0
}

// ParseSpec parses a topology flag value of the form "kind" or
// "mesh:WxH" into a partial Config (Kind and, for a shaped mesh, the
// dimensions). "mesh:8x4" is a 32-node rectangle; a bare "mesh" keeps
// the auto near-square shape.
func ParseSpec(spec string) (Config, error) {
	name, shape, shaped := strings.Cut(spec, ":")
	kind, err := KindByName(name)
	if err != nil {
		return Config{}, err
	}
	c := Config{Kind: kind}
	if !shaped {
		return c, nil
	}
	if kind != Mesh {
		return Config{}, fmt.Errorf("topology %q takes no shape (only mesh:WxH)", name)
	}
	ws, hs, ok := strings.Cut(shape, "x")
	if ok {
		c.MeshW, err = strconv.Atoi(ws)
		if err == nil {
			c.MeshH, err = strconv.Atoi(hs)
		}
	}
	if !ok || err != nil || c.MeshW < 1 || c.MeshH < 1 {
		return Config{}, fmt.Errorf("bad mesh shape %q (want WxH, e.g. mesh:8x4)", shape)
	}
	return c, nil
}

// Stats aggregates network traffic over a run. The Ideal topology has no
// links and reports all-zero stats; per-message counts for it come from
// machine.Stats.Messages.
type Stats struct {
	// Messages counts messages routed over links. Self-sends bypass the
	// network (local loopback) and are not counted.
	Messages uint64
	// LinkBusy is the total cycles links spent transmitting; LinkWait
	// the total cycles messages spent queued for links.
	LinkBusy sim.Time
	LinkWait sim.Time
	// LinkStalls counts link acquisitions that found the link busy.
	LinkStalls uint64
	// MaxLinkQueue is the deepest per-link queue observed: messages in
	// the system (queued + transmitting) at an arrival instant. 1 means
	// every message found its link idle; > 1 means messages waited.
	MaxLinkQueue int
}

// Add folds another run's stats into s: counters sum, the queue-depth
// high-water mark takes the max. Adaptive executions aggregate their
// per-strategy machines through here.
func (s *Stats) Add(o Stats) {
	s.Messages += o.Messages
	s.LinkBusy += o.LinkBusy
	s.LinkWait += o.LinkWait
	s.LinkStalls += o.LinkStalls
	if o.MaxLinkQueue > s.MaxLinkQueue {
		s.MaxLinkQueue = o.MaxLinkQueue
	}
}

// Network is the machine's view of the interconnect. Send both *reserves*
// the path of one message and returns its one-way latency; it must be
// called once per message, in simulation order, which the single-threaded
// engine guarantees. Implementations are deterministic: the same call
// sequence yields the same latencies.
type Network interface {
	Kind() Kind
	// Send routes one message from node `from` to node `to` entering the
	// network at time now. base is the flat one-way latency the machine
	// would charge on an ideal network (Latencies.MsgHop); topologies
	// that model distance may return less (a mesh neighbor) or more (a
	// congested path). The result is always >= 0 and, for a given pair,
	// never lets a later message overtake an earlier one.
	Send(from, to int, now, base sim.Time) sim.Time
	// MinLatency is the unloaded latency floor of a pair: what Send
	// would return on an idle network.
	MinLatency(from, to int, base sim.Time) sim.Time
	// Reset clears link queue state and statistics.
	Reset()
	// Links exposes the topology's link servers (nil for Ideal), so a
	// caller that splits a run into pieces can carry link reservations
	// from one piece into the next.
	Links() []sim.Server
	// Stats reports accumulated traffic.
	Stats() Stats
}

// New builds a network for the configuration.
func New(c Config) (Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	switch c.Kind {
	case Ideal:
		return idealNet{}, nil
	case Bus:
		return newBus(c), nil
	case Crossbar:
		return newCrossbar(c), nil
	case Mesh:
		return newMesh(c), nil
	}
	return nil, fmt.Errorf("interconnect: unknown topology kind %d", uint8(c.Kind))
}

// MustNew is New for known-good configurations.
func MustNew(c Config) Network {
	n, err := New(c)
	if err != nil {
		panic(err)
	}
	return n
}

// linkDepthRing bounds the per-link queue-depth accounting (sim.Server
// ring capacity). Depth counts saturate there; timing is unaffected.
const linkDepthRing = 256

// aggregate folds per-link sim.Server counters into Stats.
func aggregate(links []sim.Server, messages uint64) Stats {
	st := Stats{Messages: messages}
	for i := range links {
		l := &links[i]
		st.LinkBusy += l.BusyCycles
		st.LinkWait += l.WaitCycles
		st.LinkStalls += l.Stalls
		if l.MaxDepth > st.MaxLinkQueue {
			st.MaxLinkQueue = l.MaxDepth
		}
	}
	return st
}

// resetLinks clears every link.
func resetLinks(links []sim.Server) {
	for i := range links {
		links[i].Reset()
	}
}
