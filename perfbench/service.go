package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specrt/internal/harness"
	"specrt/internal/server"
	"specrt/internal/stats"
)

// svcServer is an in-process specrtd: the library's server.Server behind
// a real loopback HTTP listener.
type svcServer struct {
	srv    *server.Server
	hs     *http.Server
	client *server.Client
	served chan error
}

// startServer starts specrtd at quick scale with one simulation worker
// per host core, and a client limited to conns connections.
func startServer(conns int) (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Options{Scale: harness.Quick, Parallel: conns})
	s := &svcServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	s.client = &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}
	return s, nil
}

// stop drains the server (every accepted job finishes), closes the
// listener and waits for the serve goroutine to return.
func (s *svcServer) stop() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.HTTP.Transport.(*http.Transport).CloseIdleConnections()
	return err
}

// svcOut is one request as the client saw it.
type svcOut struct {
	submitStart, submitEnd time.Time
	doneAt                 time.Time // completion observed (== submitEnd for cache hits)
	resultStart, end       time.Time
	cached, shed           bool
	body                   []byte
	err                    error
}

// do submits one job, waits for it on the server's progress stream (so
// completion is seen as it happens, not at a poll tick), and fetches the
// raw report bytes.
func (s *svcServer) do(req server.JobRequest) (o svcOut) {
	o.submitStart = time.Now()
	sub, err := s.client.Submit(req)
	o.submitEnd = time.Now()
	o.doneAt = o.submitEnd
	if err != nil {
		var api *server.APIError
		o.shed = errors.As(err, &api) && api.Shed()
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.cached = sub.Cached
	if sub.Status != "done" {
		if err := s.wait(sub.ID); err != nil {
			o.err = err
			return o
		}
		o.doneAt = time.Now()
	}
	o.resultStart = time.Now()
	o.body, err = s.client.Result(sub.ID)
	o.end = time.Now()
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
	}
	return o
}

// wait reads a job's server-sent progress events until a terminal one.
func (s *svcServer) wait(id string) error {
	resp, err := s.client.HTTP.Get(s.client.BaseURL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var st server.StatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		switch st.Status {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", id, st.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return fmt.Errorf("stream: job %s ended without a terminal event", id)
}

// svcRate is the open loop's fixed arrival rate and svcLimitMS the
// latency limit goodput counts against; see RATIONALE.md for how both
// were chosen from the measured capacity.
const (
	svcRate    = 32.0
	svcLimitMS = 100.0
	// svcWindowSec is the length of the schedule slices throughput
	// medians are taken over.
	svcWindowSec = 3.0
)

// svcStats is one open-loop phase; its windows are slices of the
// schedule.
type svcStats struct {
	phase
	lateMax          time.Duration
	shed, cachedHits int
	simulated        int64
	// uniques sums the exact counts of the unique jobs' reports.
	uniques counts
	// uniqueJobs are the unique jobs that succeeded, for the in-process
	// replay.
	uniqueJobs []svcDone
}

// svcDone is a completed unique job: its spec, the report bytes the
// server returned, and how long it spent in the server after admission.
type svcDone struct {
	spec      svcSpec
	body      []byte
	residence time.Duration
}

// runOpen plays the schedule against the server as an open loop: each
// job is due at its scheduled time whether or not earlier ones have
// finished, and at most conns requests are outstanding (one per client
// connection). A job is timed from when it was due until its result
// bytes arrive, so a stall delays the jobs behind it and shows. Spans
// take job ids from firstJob on.
func runOpen(s *svcServer, jobs []svcJob, conns int, tr *tracer, pins pinTable, firstJob int) svcStats {
	outs := make([]svcOut, len(jobs))
	dues := make([]time.Time, len(jobs))
	var next atomic.Int64
	// Start every timed phase from a collected heap, whatever set-up left.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sim0 := s.srv.Runner().Simulated()
	// Kernel samples bracket the phase rather than run beside the
	// traffic, where they would compete with the server for the cores.
	var ref refClock
	ref.sample(refBracket)
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				dues[i] = t0.Add(time.Duration(jobs[i].due * float64(time.Second)))
				time.Sleep(time.Until(dues[i]))
				outs[i] = s.do(jobs[i].spec.req)
			}
		}()
	}
	wg.Wait()
	ref.sample(refBracket)
	runtime.ReadMemStats(&ms1)
	st := svcStats{simulated: s.srv.Runner().Simulated() - sim0}
	st.ref = ref
	st.mallocs = ms1.Mallocs - ms0.Mallocs - ref.allocs()
	// A window's jobs are those due within it; it lasts from its start
	// until the last of them completes.
	nw := int(math.Ceil(float64(len(jobs)) / svcRate / svcWindowSec))
	st.windows = make([]window, nw)
	for i, o := range outs {
		j := jobs[i]
		k := min(int(j.due/svcWindowSec), nw-1)
		w := &st.windows[k]
		st.attempted++
		end := o.end
		if end.IsZero() {
			end = o.doneAt
		}
		winStart := t0.Add(time.Duration(float64(k) * svcWindowSec * float64(time.Second)))
		w.wall = max(w.wall, end.Sub(winStart).Seconds())
		lat := float64(end.Sub(dues[i])) / 1e6
		st.latMS = append(st.latMS, lat)
		st.lateMax = max(st.lateMax, o.submitStart.Sub(dues[i]))
		if tr != nil {
			id := firstJob + i
			root := tr.record("job", id, -1, dues[i], end)
			tr.record("loadgen.late", id, root, dues[i], o.submitStart)
			tr.record("server.submit", id, root, o.submitStart, o.submitEnd)
			if j.unique && o.err == nil {
				tr.record("server.wait", id, root, o.submitEnd, o.doneAt)
			}
			if !o.resultStart.IsZero() {
				tr.record("server.result", id, root, o.resultStart, o.end)
			}
		}
		if o.shed {
			st.shed++
		}
		if o.cached {
			st.cachedHits++
		}
		err := o.err
		if err == nil {
			err = pins.check(j.spec.label, o.body)
		}
		if err != nil {
			st.fail(err)
			continue
		}
		w.ok++
		if lat <= svcLimitMS {
			w.good++
		}
		if !j.unique {
			continue
		}
		rep, err := stats.DecodeReport(o.body)
		if err != nil {
			st.fail(err)
			continue
		}
		st.uniques.add(&rep)
		st.uniqueJobs = append(st.uniqueJobs, svcDone{spec: j.spec, body: o.body, residence: o.doneAt.Sub(o.submitEnd)})
	}
	return st
}

// warmServer submits the set-up set and waits for every job, filling the
// server's cache, then resubmits each once as a cached duplicate.
func warmServer(s *svcServer) error {
	for round := 0; round < 2; round++ {
		for _, sp := range svcWarm() {
			if o := s.do(sp.req); o.err != nil {
				return fmt.Errorf("warm-up %s: %w", sp.label, o.err)
			}
		}
	}
	return nil
}
