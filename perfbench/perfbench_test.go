package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"specrt/internal/harness"
)

func labels(cells []cell) []string {
	var out []string
	for _, c := range cells {
		out = append(out, c.label)
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	cells := paperCells(harness.Default)
	if a, b := labels(permuted(cells, 1, "paper", 0)), labels(permuted(cells, 1, "paper", 0)); !reflect.DeepEqual(a, b) {
		t.Error("paper order differs for one seed")
	}
	if a, b := labels(permuted(cells, 1, "paper", 0)), labels(permuted(cells, 2, "paper", 0)); reflect.DeepEqual(a, b) {
		t.Error("paper order identical across seeds")
	}

	shapes := func(seed uint64) []genShape {
		var out []genShape
		for p := 0; p < 20; p++ {
			out = append(out, wideShape(seed, p))
		}
		return out
	}
	if !reflect.DeepEqual(shapes(1), shapes(1)) {
		t.Error("wide shapes differ for one seed")
	}
	if reflect.DeepEqual(shapes(1), shapes(2)) {
		t.Error("wide shapes identical across seeds")
	}

	sched := func(seed uint64) []string {
		var out []string
		for _, j := range svcSchedule(seed, 960, svcRate) {
			out = append(out, j.spec.label)
		}
		return out
	}
	if !reflect.DeepEqual(sched(1), sched(1)) {
		t.Error("service schedule differs for one seed")
	}
	if reflect.DeepEqual(sched(1), sched(2)) {
		t.Error("service schedule identical across seeds")
	}
}

func TestServiceScheduleShape(t *testing.T) {
	jobs := svcSchedule(7, 960, svcRate)
	seen := map[string]bool{}
	uniques := map[string]bool{}
	for _, w := range svcWarm() {
		seen[w.label] = true
	}
	for i, j := range jobs {
		if j.unique {
			if seen[j.spec.label] {
				t.Fatalf("job %d: unique spec %s seen before", i, j.spec.label)
			}
			uniques[j.spec.label] = true
			seen[j.spec.label] = true
		} else if !seen[j.spec.label] {
			t.Fatalf("job %d: duplicate of unsubmitted spec %s", i, j.spec.label)
		}
	}
	if got, want := len(uniques), 960/svcUniqueEvery; got != want {
		t.Errorf("%d unique specs, want %d", got, want)
	}
	// The unique set does not depend on the seed, only its order does.
	other := map[string]bool{}
	for _, j := range svcSchedule(8, 960, svcRate) {
		if j.unique {
			other[j.spec.label] = true
		}
	}
	if !reflect.DeepEqual(uniques, other) {
		t.Error("unique spec set depends on the seed")
	}
}

// The tuning seed (1) and the held-out seed (2) generate only jobs whose
// digests are pinned; so does every other seed, because the table covers
// every label a generator can produce.
func TestPinsCoverNamedSeeds(t *testing.T) {
	pins, err := parsePins(pinnedText)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	want = append(want, labels(paperCells(harness.Default))...)
	want = append(want, labels(paperCells(harness.Quick))...)
	for _, g := range genShapes() {
		want = append(want, labels(wideCells(g))...)
	}
	for _, seed := range []uint64{1, 2} {
		for _, j := range svcSchedule(seed, 960, svcRate) {
			want = append(want, j.spec.label)
		}
	}
	for _, l := range want {
		if _, ok := pins[l]; !ok {
			t.Errorf("no pinned digest for %s", l)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // rung
		ok   bool
	}{
		{9, 0, false},
		{10, 0, false}, // the median of 10 has 5 beyond
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{138, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p, v, ok := tail(s)
		if ok != tc.ok || p != tc.want {
			t.Errorf("n=%d: rung p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%g", tc.n, beyond, p)
		}
		// The next rung up must leave fewer than 10 beyond.
		for i, r := range tailLadder {
			if r == p && i+1 < len(tailLadder) {
				if _, b := pctl(s, tailLadder[i+1]); b >= 10 {
					t.Errorf("n=%d: p%g also has %d beyond", tc.n, tailLadder[i+1], b)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 60 * ms, End: 70 * ms},  // disjoint
		{Name: "d", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{Name: "e", Parent: 2, Start: 25 * ms, End: 35 * ms},  // grandchild
		{Name: "root2", Parent: -1, Start: 0, End: 5 * ms},    // no children
	}
	got := selfTimes(spans)
	want := []time.Duration{40 * ms, 20 * ms, 20 * ms, 10 * ms, 30 * ms, 10 * ms, 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// benchmarkJSON mirrors the metric lists of the repository's
// BENCHMARK.json.
type benchmarkJSON struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, l := range [][]struct{ Name string }{bj.EndToEnd, bj.PerLayer} {
		for _, m := range l {
			if !metricName.MatchString(m.Name) {
				t.Errorf("bad metric name %q", m.Name)
			}
			if listed[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			listed[m.Name] = true
		}
	}
	// Every metric the shared code paths emit is listed.
	m := metrics{}
	ph := phase{latMS: []float64{1}, attempted: 1, windows: []window{{ok: 1, good: 1, wall: 1}}}
	endToEnd(m, &ph, false, nil, &refClock{})
	(&counts{}).put(m)
	spanMetrics(nil, m)
	for name := range m {
		if !metricName.MatchString(name) {
			t.Errorf("bad emitted metric name %q", name)
		}
		if !listed[name] {
			t.Errorf("emitted metric %q is not in BENCHMARK.json", name)
		}
	}
	if err := printResult(new(discard), result{Metrics: metrics{"bad name": {1, "s"}}}); err == nil {
		t.Error("printResult accepted a metric name with a space")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	var c cell
	for _, x := range paperCells(harness.Quick) {
		if x.label == "quick/Track-fail/serial/1" {
			c = x
		}
	}
	if c.build == nil {
		t.Fatal("cell not found")
	}
	pins, err := parsePins(pinnedText)
	if err != nil {
		t.Fatal(err)
	}
	one := func(int) []cell { return []cell{c} }
	if st := runClosed(one, 0, 1, nil, pins); st.failed != 0 {
		t.Fatalf("pinned digest: %d failures: %v", st.failed, st.errs)
	}
	bad := pinTable{c.label: "00000000000000000000000000000000"}
	st := runClosed(one, 0, 1, nil, bad)
	if st.attempted != 1 || st.failed != 1 {
		t.Fatalf("injected mismatch: attempted %d failed %d, want 1 and 1", st.attempted, st.failed)
	}
	m := metrics{}
	endToEnd(m, &st.phase, false, st.windows, &st.ref)
	if got := m["ok_ratio"].Value; got != 0 {
		t.Errorf("ok_ratio %g after a mismatch, want 0", got)
	}
}
