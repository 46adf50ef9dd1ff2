package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// nbodyd's defaults: two engines on the HD 5850 model, a queue of eight, and
// these per-job limits. The closed loop runs one client per engine.
const (
	engines    = 2
	queueDepth = 8
)

var serviceLimits = serve.Limits{MaxBodies: 1_000_000, MaxSteps: 100_000}

// service is one in-process job service behind a loopback HTTP listener,
// with one keep-alive client per engine.
type service struct {
	svc     *serve.Service
	obs     *obs.Obs
	srv     *http.Server
	done    chan error // Serve's return
	clients []*client
}

// startService starts the service configured like nbodyd's defaults, its
// JSON logs going to a discard sink.
func startService() (*service, error) {
	o := obs.New()
	pool, err := serve.NewPool(engines, gpusim.HD5850(), o)
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	svc := serve.NewService(serve.ServiceConfig{
		Engines:        engines,
		QueueDepth:     queueDepth,
		DefaultTimeout: 5 * time.Minute,
		MaxRetries:     1,
		Limits:         serviceLimits,
		Obs:            o,
		Logger:         logger,
	}, pool)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Drain(context.Background())
		return nil, err
	}
	h := serve.NewServer(svc)
	h.AccessLog = logger
	s := &service{svc: svc, obs: o, srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	for i := 0; i < engines; i++ {
		s.clients = append(s.clients, newClient("http://"+ln.Addr().String()))
	}
	return s, nil
}

// close drains the service, shuts the listener and waits for the server
// goroutine to return.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := s.svc.Drain(ctx)
	shutErr := s.srv.Shutdown(ctx)
	<-s.done
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return shutErr
}

// warmUp runs one one-step job per (plan, engine slot) so every slot has
// built and cached each plan's engine before the timed window.
func (s *service) warmUp(w workload, plans []string) error {
	for _, plan := range plans {
		doc, err := w.warmupDoc(plan)
		if err != nil {
			return err
		}
		slots := map[int]bool{}
		for try := 0; try < 8 && len(slots) < engines; try++ {
			// One job per client at once: both engines are busy, so the two
			// jobs land on different slots unless one finishes first.
			results, _ := drive(s.clients, [][]byte{doc, doc})
			for _, r := range results {
				if r.err != nil {
					return fmt.Errorf("warm-up %s: %w", plan, r.err)
				}
				slots[r.status.Engine] = true
			}
		}
		if len(slots) < engines {
			return fmt.Errorf("warm-up of %s reached %d of %d engine slots", plan, len(slots), engines)
		}
	}
	return nil
}

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// jobResult is one job as its client saw it.
type jobResult struct {
	err      error
	rejected bool          // answered 429
	submit   time.Duration // POST round trip
	latency  time.Duration // POST sent to final record received
	done     time.Time     // final record received

	records      int // stream lines
	bytes        int64
	snapshots    int
	first, final *serve.SnapshotJSON

	status serve.JobStatus // read after the final record
	perf   serve.JobPerf
}

// run submits one job, follows its stream to the final record, then reads
// its /perf attribution and status outside the latency window.
func (c *client) run(doc []byte) jobResult {
	var r jobResult
	start := time.Now()
	var st serve.JobStatus
	code, err := c.call(http.MethodPost, "/v1/jobs", doc, &st)
	r.submit = time.Since(start)
	if err != nil {
		r.err, r.rejected = err, code == http.StatusTooManyRequests
		return r
	}
	if r.err = c.stream(st.ID, &r); r.err != nil {
		return r
	}
	r.latency = r.done.Sub(start)
	if _, r.err = c.call(http.MethodGet, "/v1/jobs/"+st.ID+"/perf", nil, &r.perf); r.err != nil {
		return r
	}
	_, r.err = c.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &r.status)
	return r
}

// call makes one request and decodes a 2xx JSON answer into out.
func (c *client) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// stream reads the job's NDJSON stream up to its final record.
func (c *client) stream(id string, r *jobResult) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			r.records++
			r.bytes += int64(len(line))
			var rec serve.SnapshotRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("stream %s: %w", id, err)
			}
			if rec.Snapshot != nil {
				if r.first == nil {
					r.first = rec.Snapshot
				}
				r.final = rec.Snapshot
				r.snapshots++
			}
			if rec.Final {
				r.done = time.Now()
				// Drain to EOF so the connection is reused.
				_, _ = io.Copy(io.Discard, br)
				if rec.State != serve.StateDone {
					return fmt.Errorf("job %s ended %s: %s", id, rec.State, rec.Error)
				}
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("stream %s ended before its final record: %w", id, err)
		}
	}
}

// drive runs docs through the clients in a closed loop: a client submits its
// next job only after the previous one's final record and follow-up reads.
// It returns the results in job order and the makespan from the first
// submit to the last final record.
func drive(clients []*client, docs [][]byte) ([]jobResult, time.Duration) {
	out := make([]jobResult, len(docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(docs); k = int(next.Add(1)) - 1 {
				out[k] = c.run(docs[k])
			}
		}()
	}
	wg.Wait()
	last := start
	for _, r := range out {
		if r.done.After(last) {
			last = r.done
		}
	}
	return out, last.Sub(start)
}
