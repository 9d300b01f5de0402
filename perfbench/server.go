package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// replica is one running qlaserve process.
type replica struct {
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  string // path of its stderr log
	done chan struct{}
}

// cluster is the set of replicas one setup started, with the scratch
// directory that holds their cache and journal dirs.
type cluster struct {
	dir      string
	replicas []*replica
}

// startCluster starts n replicas with fresh, empty cache and journal
// directories (so a repeated seed never finds results of an earlier
// run) and waits until every one answers /healthz. Replicas of a
// fleet peer with each other. Without journal the replicas run
// journal-less, the qlaserve default.
func startCluster(ctx context.Context, bin, work string, n, workers int, journal bool, extra []string) (*cluster, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	addrs := make([]string, n)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			c.stop()
			return nil, err
		}
	}
	for i, addr := range addrs {
		name := fmt.Sprintf("r%d", i)
		journalDir := ""
		if journal {
			journalDir = filepath.Join(dir, name, "journal")
		}
		args := []string{
			"-addr", addr,
			"-workers", strconv.Itoa(workers),
			"-cache-dir", filepath.Join(dir, name, "cache"),
			"-journal-dir", journalDir,
		}
		if n > 1 {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, "http://"+a)
				}
			}
			// Fixed replica identities: lease ties go to the lowest ID, so
			// random ones would make the fleet's schedule differ run to run.
			args = append(args, "-peers", strings.Join(peers, ","), "-self-id", "replica-"+name)
		}
		args = append(args, extra...)
		r, err := startReplica(bin, args, filepath.Join(dir, name+".log"))
		if err != nil {
			c.stop()
			return nil, err
		}
		r.base = "http://" + addr
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		if err := r.waitHealthy(ctx); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func startReplica(bin string, args []string, logPath string) (*replica, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark killed from outside must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting qlaserve: %w", err)
	}
	r := &replica{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(r.done)
	}()
	return r, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitHealthy polls /healthz every millisecond until it answers 200.
func (r *replica) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-r.done:
			return fmt.Errorf("qlaserve exited during startup: %s", r.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := probeClient.Get(r.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("qlaserve at %s not healthy after 30s: %s", r.base, r.logTail())
}

func (r *replica) logTail() string {
	raw, _ := os.ReadFile(r.log)
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (r *replica) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM to every replica, waits for each to exit, sending
// SIGKILL to any still running after stopGrace, and removes the scratch
// directory. Nothing of a replica's state outlives the run, so there is
// no reason to wait out a long drain.
func (c *cluster) stop() {
	for _, r := range c.replicas {
		r.cmd.Process.Signal(syscall.SIGTERM)
	}
	grace := time.After(stopGrace)
	for _, r := range c.replicas {
		select {
		case <-r.done:
		case <-grace:
			r.cmd.Process.Kill()
			<-r.done
		}
	}
	os.RemoveAll(c.dir)
}

const stopGrace = 2 * time.Second

// routeCounter counts the client's own requests per replica and route
// pattern, so the fleet metrics can subtract them from what the
// replicas report having served.
type routeCounter struct {
	mu sync.Mutex
	n  map[string]map[string]int // base URL -> route -> requests
}

func (rc *routeCounter) add(base, route string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.n == nil {
		rc.n = map[string]map[string]int{}
	}
	if rc.n[base] == nil {
		rc.n[base] = map[string]int{}
	}
	rc.n[base][route]++
}

// take returns the counts so far and starts counting from zero.
func (rc *routeCounter) take() map[string]map[string]int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := rc.n
	rc.n = nil
	return n
}

// routeOf maps a request the client sends to the server's route pattern
// (the route label of qla_http_requests_total).
func routeOf(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/events"):
		return method + " /v1/jobs/{id}/events"
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/result"):
		return method + " /v1/jobs/{id}/result"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return method + " /v1/jobs/{id}"
	}
	return method + " " + path
}

// conn is one load-generator connection: a single keep-alive TCP
// connection to one replica. Requests go out one at a time, written and
// read on the calling goroutine, so the client adds no goroutine
// hand-offs of its own to what is measured. The caller reads each
// response body to the end and closes it before the next request.
type conn struct {
	base  string // http://host:port
	count *routeCounter
	nc    net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	// dead marks a connection the server asked to close.
	dead bool
}

func (c *conn) do(req *http.Request) (*http.Response, error) {
	c.count.add(c.base, routeOf(req.Method, req.URL.Path))
	if c.nc == nil || c.dead {
		c.close()
		var d net.Dialer
		nc, err := d.DialContext(req.Context(), "tcp", req.URL.Host)
		if err != nil {
			return nil, err
		}
		c.nc, c.r, c.w, c.dead = nc, bufio.NewReader(nc), bufio.NewWriter(nc), false
	}
	if deadline, ok := req.Context().Deadline(); ok {
		c.nc.SetDeadline(deadline)
	}
	if err := req.Write(c.w); err != nil {
		c.close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.r, req)
	if err != nil {
		c.close()
		return nil, err
	}
	c.dead = resp.Close
	return resp, nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// get issues a GET and returns the whole body, failing on a non-200.
func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// scrape fetches the replica's /metrics exposition.
func (c *conn) scrape(ctx context.Context) (*exposition, error) {
	raw, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(raw))
}
