package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"qla/internal/jobs"
	"qla/internal/sweep"
)

// httpTarget drives real replicas over two client connections. While it
// does, the load generator keeps to one processor (GOMAXPROCS 1), so its
// own runtime threads do not contend with the servers' for the cores;
// one is plenty to issue requests on two connections. Connection c
// talks to replica c mod n. Sweeps are submitted to the
// first replica on connection 0; connection 1 waits for the second
// replica of a fleet to settle the same sweep.
type httpTarget struct {
	conns [2]*conn
	count *routeCounter
	// bases lists the replicas' base URLs in start order.
	bases []string
}

func newHTTPTarget(c *cluster) *httpTarget {
	t := &httpTarget{count: &routeCounter{}}
	for _, r := range c.replicas {
		t.bases = append(t.bases, r.base)
	}
	for i := range t.conns {
		t.conns[i] = &conn{base: t.bases[i%len(t.bases)], count: t.count}
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.conns {
		c.close()
	}
}

func (t *httpTarget) run(ctx context.Context, conn int, op *runOp) ([]byte, error) {
	c := t.conns[conn]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/run", bytes.NewReader(op.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/run: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := checkRun(op, body, resp.Header.Get("X-Cache"), resp.Header.Get("X-Spec-Hash")); err != nil {
		return nil, err
	}
	return body, nil
}

func (t *httpTarget) sweep(ctx context.Context, op *sweepOp) (*sweep.Result, time.Duration, error) {
	a := t.conns[0]
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/v1/sweeps", bytes.NewReader(op.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		a.close()
		return nil, 0, err
	}
	// 202 = a new job; 200 would mean the submission joined an
	// existing one, which a never-submitted sweep must not.
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("POST /v1/sweeps: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sub struct {
		JobID  string `json:"job_id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, 0, fmt.Errorf("POST /v1/sweeps response: %w", err)
	}
	if sub.Points != op.points {
		return nil, 0, fmt.Errorf("sweep expanded to %d points, want %d", sub.Points, op.points)
	}
	if err := awaitDone(ctx, a, sub.JobID); err != nil {
		return nil, 0, err
	}
	makespan := time.Since(start)
	if b := t.conns[1]; b.base != a.base {
		if err := awaitDone(ctx, b, sub.JobID); err != nil {
			return nil, 0, err
		}
	}
	raw, err = a.get(ctx, "/v1/jobs/"+sub.JobID+"/result")
	if err != nil {
		return nil, 0, err
	}
	var res sweep.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, fmt.Errorf("sweep result: %w", err)
	}
	return &res, makespan, nil
}

// awaitDone follows a job's event stream until its done event and
// checks the job finished in state done. A fleet peer admits a
// forwarded sweep asynchronously, so a 404 is retried for a while.
func awaitDone(ctx context.Context, c *conn, id string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return err
		}
		resp, err := c.do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound && time.Now().Before(deadline) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		snap, err := readDone(resp)
		resp.Body.Close()
		if err != nil {
			c.close()
			return fmt.Errorf("%s job %s: %w", c.base, id[:12], err)
		}
		if snap.State != jobs.StateDone {
			return fmt.Errorf("%s job %s settled %s: %s", c.base, id[:12], snap.State, snap.Error)
		}
		return nil
	}
}

// readDone reads a Server-Sent Events stream up to its done event and
// drains the rest, so the connection can be reused.
func readDone(resp *http.Response) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return snap, fmt.Errorf("event stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "done" {
			continue
		}
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			return snap, fmt.Errorf("done event: %w", err)
		}
		_, err := io.Copy(io.Discard, resp.Body)
		return snap, err
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	return snap, fmt.Errorf("event stream ended without a done event")
}

// scrapeAll scrapes every replica, each over its own connection.
func (t *httpTarget) scrapeAll(ctx context.Context) (scrapes, error) {
	out := make(scrapes, len(t.bases))
	for i := range t.bases {
		e, err := t.conns[i].scrape(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// buildinfo returns the first replica's /buildinfo document.
func (t *httpTarget) buildinfo(ctx context.Context) (json.RawMessage, error) {
	raw, err := t.conns[0].get(ctx, "/buildinfo")
	if err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, fmt.Errorf("/buildinfo: %w", err)
	}
	return compact.Bytes(), nil
}
