package main

import (
	"specrt/internal/machine"
	"specrt/internal/stats"
)

// counts sums the exact simulated statistics of a fixed set of jobs (one
// closed-loop pass, or a service run's unique jobs). Simulation is
// deterministic, so these repeat exactly for a seed; a change meant only
// to speed the simulator up must leave every one of them unchanged.
type counts struct {
	Machine      machine.Stats
	Core         stats.CoreGist
	HomeRequests uint64
	HomeStalls   uint64
	HomeWait     int64
	MaxHomeQueue int
	NetMessages  uint64
	LinkWait     int64
	LinkStalls   uint64
	MaxLinkQueue int
	Switches     int
	Mispredicts  int
	SpecAttempts int
	SpecPassed   int
}

// refsOf is the simulated memory references of one report: the
// machine's plain reads and writes plus the speculative accesses that
// go through the core layer and are not in the machine's counters.
func refsOf(r *stats.Report) uint64 {
	c := r.CoreStats
	return r.MachineStats.Reads + r.MachineStats.Writes +
		c.NonPrivReads + c.NonPrivWrites + c.PrivReads + c.PrivWrites
}

// specOutcome returns how many speculative executions a job attempted
// and how many of those passed.
func specOutcome(r *stats.Report) (attempted, passed int) {
	if r.Policy != nil {
		for _, d := range r.Policy.Decisions {
			if d.Strategy != "serial" {
				attempted++
				if !d.Failed {
					passed++
				}
			}
		}
		return attempted, passed
	}
	if r.Mode != "SW" && r.Mode != "HW" {
		return 0, 0
	}
	attempted = r.Executions - r.SerialFallbacks
	return attempted, attempted - r.Failures - r.Exceptions
}

func (c *counts) add(r *stats.Report) {
	c.Machine.Add(r.MachineStats)
	g := r.CoreStats
	c.Core.NonPrivReads += g.NonPrivReads
	c.Core.NonPrivWrites += g.NonPrivWrites
	c.Core.PrivReads += g.PrivReads
	c.Core.PrivWrites += g.PrivWrites
	c.Core.FirstUpdates += g.FirstUpdates
	c.Core.ROnlyUpdates += g.ROnlyUpdates
	c.Core.FirstUpdateFails += g.FirstUpdateFails
	c.Core.ReadIns += g.ReadIns
	c.Core.CopyOuts += g.CopyOuts
	c.Core.Failures += g.Failures
	c.HomeRequests += r.HomeQueue.Requests
	c.HomeStalls += r.HomeQueue.Stalls
	c.HomeWait += int64(r.HomeQueue.WaitCycles)
	c.MaxHomeQueue = max(c.MaxHomeQueue, r.HomeQueue.MaxQueueDepth)
	c.NetMessages += r.NetStats.Messages
	c.LinkWait += int64(r.NetStats.LinkWait)
	c.LinkStalls += r.NetStats.LinkStalls
	c.MaxLinkQueue = max(c.MaxLinkQueue, r.NetStats.MaxLinkQueue)
	if r.Policy != nil {
		c.Switches += r.Policy.Switches
		c.Mispredicts += r.Policy.Mispredict
	}
	a, p := specOutcome(r)
	c.SpecAttempts += a
	c.SpecPassed += p
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// put writes the counts as per-layer metrics.
func (c *counts) put(m metrics) {
	ms := c.Machine
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"machine.reads", ms.Reads}, {"machine.writes", ms.Writes},
		{"machine.l1_hits", ms.L1Hits}, {"machine.l2_hits", ms.L2Hits},
		{"machine.fetch_2hop", ms.Fetch2Hop}, {"machine.fetch_3hop", ms.Fetch3Hop},
		{"machine.upgrades", ms.Upgrades}, {"machine.invalidations", ms.Invalidations},
		{"machine.writebacks", ms.Writebacks}, {"machine.messages", ms.Messages},
		{"core.nonpriv_accesses", c.Core.NonPrivReads + c.Core.NonPrivWrites},
		{"core.priv_accesses", c.Core.PrivReads + c.Core.PrivWrites},
		{"core.first_updates", c.Core.FirstUpdates},
		{"core.ronly_updates", c.Core.ROnlyUpdates},
		{"core.first_update_fails", c.Core.FirstUpdateFails},
		{"core.readins", c.Core.ReadIns}, {"core.copyouts", c.Core.CopyOuts},
		{"core.failures", c.Core.Failures},
		{"directory.home_requests", c.HomeRequests},
		{"directory.home_stalls", c.HomeStalls},
		{"directory.home_wait_cycles", uint64(c.HomeWait)},
		{"directory.max_queue_depth", uint64(c.MaxHomeQueue)},
		{"interconnect.messages", c.NetMessages},
		{"interconnect.link_wait_cycles", uint64(c.LinkWait)},
		{"interconnect.link_stalls", c.LinkStalls},
		{"interconnect.max_link_queue", uint64(c.MaxLinkQueue)},
		{"policy.switches", uint64(c.Switches)},
		{"policy.mispredicts", uint64(c.Mispredicts)},
	} {
		m.set(kv.name, float64(kv.v), "count")
	}
	// Hits are counted for plain and speculative accesses alike, so the
	// ratios are over every simulated reference (see refsOf).
	acc := float64(ms.Reads + ms.Writes + c.Core.NonPrivReads + c.Core.NonPrivWrites +
		c.Core.PrivReads + c.Core.PrivWrites)
	m.set("cache.l1_hit_ratio", ratio(float64(ms.L1Hits), acc), "ratio")
	m.set("cache.l2_hit_ratio", ratio(float64(ms.L2Hits), acc-float64(ms.L1Hits)), "ratio")
	m.set("core.spec_pass_ratio", ratio(float64(c.SpecPassed), float64(c.SpecAttempts)), "ratio")
}
