package run

// ForceWorkers fixes the number of goroutines multi-execution runs
// simulate on (1 pins the chained loop) until the returned function
// restores automatic sizing.
func ForceWorkers(n int) (restore func()) {
	workersOverride = n
	return func() { workersOverride = 0 }
}

// Reruns reports how many executions merges have re-run seeded so far.
func Reruns() int64 { return reruns.Load() }
