package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"javasim/internal/core"
	"javasim/internal/serve"
	"javasim/internal/store"
)

// daemon is one in-process javasimd: a serve.Server on loopback HTTP over
// an engine backed by a content-addressed store directory, and the
// benchmark's client for it.
type daemon struct {
	st     *store.Store
	eng    *core.Engine
	srv    *serve.Server
	http   *http.Server
	url    string
	errc   chan error
	client *http.Client
}

// startDaemon opens the store at dir and starts serving on a free
// loopback port.
func startDaemon(dir string, workers int, t *tracer) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var disk core.ResultStore = st
	if t != nil {
		disk = tracedStore{st: st, t: t}
	}
	eng := core.NewEngine(append(t.engineOptions(), core.WithParallelism(workers), core.WithDiskStore(disk))...)
	srv, err := serve.New(serve.Options{Engine: eng, Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{st: st, eng: eng, srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), errc: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}}}
	go func() { d.errc <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon the way javasimd does on SIGTERM: drain the
// server (which flushes the store), close listener and store.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.srv.Shutdown(ctx), d.http.Shutdown(ctx)}
	if err := <-d.errc; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(append(errs, d.st.Close())...)
}

// Job kinds, one per daemon workload.
const (
	jobCold = "cold" // fresh daemon and store: simulate, store Put, flush
	jobHot  = "hot"  // a plan the daemon has run: answered from the engine's memory cache
	jobDisk = "disk" // a restarted daemon on a store holding the plan's results: disk Get
)

// job submits plan as one op of the given kind. A cold job lasts until
// its results are durable (store Flush). A hot or disk job fails if the
// daemon simulates anything for it.
func (d *daemon) job(ctx context.Context, kind string, plan []byte, entry int, t *tracer) sample {
	cache, stats := d.eng.CacheStats(), d.st.Stats()
	op := t.newOp()
	j, text, err := d.submit(ctx, plan)
	if err == nil && kind == jobCold {
		start := clock()
		err = d.st.Flush()
		j.end = clock()
		t.record(spanStoreFlush, start, 0)
	}
	if j.end == 0 { // failed part-way
		j.end = clock()
	}
	after := d.eng.CacheStats()
	if sims := after.Misses - cache.Misses; err == nil && kind != jobCold && sims != 0 {
		err = fmt.Errorf("%s job simulated %d runs, want 0", kind, sims)
	}
	if t != nil {
		t.addCache(cache, after)
		t.addStore(stats, d.st.Stats())
		if done, ok := t.lastMark(markPlanDone); ok {
			j.doneToFrame = j.frame - done
		}
	}
	return sample{kind: kind, entry: entry, op: op, iv: interval{j.start, j.end},
		output: digestText(text), err: err, job: &j}
}

// job is one client-side plan submission: POST, wait on the SSE stream
// for the terminal frame, fetch the text artifacts.
type job struct {
	start, frame, end time.Duration // POST sent, job-done frame read, artifacts read
	accept            time.Duration // POST round trip (202 + job id)
	doneToFrame       time.Duration // engine's PlanDone to the job-done frame (traced runs)
}

// submit runs one job against the daemon and returns its text artifacts.
func (d *daemon) submit(ctx context.Context, plan []byte) (job, string, error) {
	c := d.client
	j := job{start: clock()}
	resp, err := post(ctx, c, d.url+"/v1/plans", plan)
	if err != nil {
		return j, "", err
	}
	var accepted struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, "", fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	j.accept = clock() - j.start
	if j.frame, err = awaitDone(ctx, c, d.url+"/v1/plans/"+accepted.ID+"/events"); err != nil {
		return j, "", err
	}
	body, err := get(ctx, c, d.url+"/v1/plans/"+accepted.ID+"/artifacts?format=text")
	if err != nil {
		return j, "", err
	}
	j.end = clock()
	return j, string(body), nil
}

// awaitDone reads the job's event stream until its terminal frame and
// returns when the job-done frame arrived.
func awaitDone(ctx context.Context, c *http.Client, url string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok || !strings.HasPrefix(name, "job-") {
			continue
		}
		at := clock()
		if name != "job-done" {
			return 0, fmt.Errorf("job ended with %s", name)
		}
		// Drain the frame so the server finishes the stream cleanly.
		_, _ = io.Copy(io.Discard, resp.Body) // the frame's data line is not needed
		return at, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("event stream ended without a terminal frame")
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.Do(req)
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, err
}
