package run

import (
	"specrt/internal/arena"
	"specrt/internal/core"
	"specrt/internal/lrpd"
	"specrt/internal/policy"
)

// Adaptive execution: instead of Mode statically deciding every loop
// instance, a policy.Director chooses each instance's strategy (serial,
// software LRPD, hardware non-privatization or privatization, plus a
// chunk override) from the loop site's recorded history.
//
// Each strategy runs on its own lazily built session — its own machine,
// controller and schedule — because the schemes need different array
// protocols and instrumentation. That matches the system being modelled:
// switching strategy between instances means re-arming the hardware (or
// not), not morphing a live machine. Only strategies the director
// actually picks pay the session setup cost, and all per-strategy stats
// are folded into one Result at the end.

// staticStrategy maps the configured mode to the strategy a static
// (paper baseline) director pins: the scheme the paper would have chosen
// before the program ran. HW splits on the arrays' own protocols —
// privatization only when every array under test privatizes.
func staticStrategy(w *Workload, m Mode) policy.Strategy {
	switch m {
	case Serial:
		return policy.Serial
	case SW:
		return policy.SWLRPD
	}
	allPriv := false
	for _, a := range w.Arrays {
		switch a.Test {
		case core.NonPriv:
			return policy.HWNonPriv
		case core.Priv:
			allPriv = true
		}
	}
	if allPriv {
		return policy.HWPriv
	}
	return policy.HWNonPriv
}

// strategyVariant derives the (workload, config) pair that executes one
// strategy. The hardware strategies rewrite the arrays under test to the
// strategy's protocol — that is the whole point of directing: the same
// loop can run under non-privatization (cheap, no copy-out) or
// privatization (tolerates write-before-read scratch access) depending
// on what the history says. Serial and software LRPD keep the arrays'
// natural protocols.
func strategyVariant(w *Workload, cfg Config, st policy.Strategy) (*Workload, Config) {
	vcfg := cfg
	vcfg.Policy = policy.Off
	vcfg.Director = policy.Static
	vcfg.AdaptiveAfter = 0

	vw := *w
	switch st {
	case policy.Serial:
		vcfg.Mode = Serial
		return &vw, vcfg
	case policy.SWLRPD:
		vcfg.Mode = SW
		return &vw, vcfg
	}

	vcfg.Mode = HW
	arrays := make([]ArraySpec, len(w.Arrays))
	copy(arrays, w.Arrays)
	for i := range arrays {
		a := &arrays[i]
		if a.Test == core.Plain {
			continue
		}
		if st == policy.HWNonPriv {
			a.Test = core.NonPriv
			a.RICO = false
		} else {
			// Privatization with read-in/copy-out (§3.3). An array the
			// workload declared NonPriv updates the shared storage in
			// place; privatized, its final values live in per-processor
			// copies and must be copied out to stay live.
			if a.Test == core.NonPriv {
				a.LiveOut = true
			}
			a.Test = core.Priv
			a.RICO = true
		}
	}
	vw.Arrays = arrays
	return &vw, vcfg
}

// executeAdaptive runs w under the director: per instance, decide from
// the site history, run on the chosen strategy's session, observe the
// outcome back into the table.
func executeAdaptive(w *Workload, cfg Config, d policy.Director, progress ProgressFunc) (*Result, error) {
	table := policy.NewTable(1)
	site := table.Site(w.Name)
	if c := w.HWSched.Chunk; c > 0 {
		table.SetBaseChunk(site, c)
	} else {
		table.SetBaseChunk(site, w.SWSched.Chunk)
	}

	// One shared touched-element bitset per array under test, observed by
	// every variant session's emitAccess (the variants renumber protocols
	// but never change which arrays are tested).
	touched := make([]*arena.Bits, len(w.Arrays))
	totalTested := 0
	for i, a := range w.Arrays {
		if a.Test != core.Plain {
			touched[i] = arena.NewBits(a.Elems)
			totalTested += a.Elems
		}
	}

	var sessions [policy.NumStrategies]*session
	releaseAll := func() {
		for _, s := range sessions {
			if s != nil {
				s.m.Release()
				s.release()
			}
		}
	}

	res := &Result{
		Workload: w.Name,
		Mode:     cfg.Mode,
		Procs:    cfg.Procs,
		Verdicts: make(map[string]lrpd.Verdict),
		Director: d.Name(),
	}
	execs := w.Executions
	if cfg.MaxExecutions > 0 && cfg.MaxExecutions < execs {
		execs = cfg.MaxExecutions
	}
	if progress != nil {
		progress(0, execs)
	}

	prev := -1
	for exec := 0; exec < execs; exec++ {
		dec := d.Decide(table.History(site))
		s := sessions[dec.Strategy]
		if s == nil {
			vw, vcfg := strategyVariant(w, cfg, dec.Strategy)
			if err := validate(vw, vcfg); err != nil {
				releaseAll()
				return nil, err
			}
			s = newSession(vw, vcfg)
			s.polTouched = touched
			sessions[dec.Strategy] = s
		}
		s.chunkOverride = dec.Chunk

		for _, b := range touched {
			if b != nil {
				b.Reset()
			}
		}
		cyclesBefore := res.Cycles
		failsBefore := res.Failures + res.Exceptions
		var copyOutBefore uint64
		if s.ctl != nil {
			copyOutBefore = s.ctl.Stats.CopyOuts
		}

		s.runOne(exec, res)
		res.Executions++

		instCycles := res.Cycles - cyclesBefore
		failed := res.Failures+res.Exceptions > failsBefore
		var copyOutWords int64
		if s.ctl != nil {
			copyOutWords = int64(s.ctl.Stats.CopyOuts - copyOutBefore)
		}
		tp := 0
		if totalTested > 0 {
			n := 0
			for _, b := range touched {
				if b != nil {
					n += b.Count()
				}
			}
			tp = n * 1000 / totalTested
		}
		table.Record(site, policy.Outcome{
			Strategy:        dec.Strategy,
			Failed:          failed,
			Cycles:          int64(instCycles),
			TouchedPermille: tp,
			CopyOutWords:    copyOutWords,
		})

		switched := prev >= 0 && prev != int(dec.Strategy)
		if switched {
			res.PolicySwitches++
		}
		if failed {
			res.PolicyMispredicts++
		}
		res.Decisions = append(res.Decisions, PolicyDecision{
			Instance:        exec,
			Strategy:        dec.Strategy,
			Chunk:           dec.Chunk,
			Cycles:          instCycles,
			Failed:          failed,
			TouchedPermille: tp,
			CopyOutWords:    copyOutWords,
			Switched:        switched,
		})
		prev = int(dec.Strategy)
		if progress != nil {
			progress(exec+1, execs)
		}
	}

	res.HomeQueue.MaxQueueHome = -1
	for _, s := range sessions {
		if s == nil {
			continue
		}
		res.MachineStats.Add(s.m.Stats)
		if s.ctl != nil {
			res.CoreStats.Add(s.ctl.Stats)
		}
		res.NetStats.Add(s.m.Net.Stats())
		res.HomeQueue.Add(s.m.HomeStats())
	}
	releaseAll()
	return res, nil
}

// ExecuteAdaptive runs w adaptively under an explicit director instead
// of the Config-derived one. Harness ablations use it to pin arbitrary
// static decisions (e.g. "always hw-priv") through the same adaptive
// executor the learned directors run in, so their cycle counts are
// comparable instance for instance. The result is still deterministic
// for a fixed director, but callers that memoize by Config hash must not
// cache through here — the hash does not cover an arbitrary director.
func ExecuteAdaptive(w *Workload, cfg Config, d policy.Director, progress ProgressFunc) (*Result, error) {
	cfg.Policy = policy.Adaptive
	if err := validate(w, cfg); err != nil {
		return nil, err
	}
	simulating.Add(1)
	defer simulating.Add(-1)
	return executeAdaptive(w, cfg, d, progress)
}
