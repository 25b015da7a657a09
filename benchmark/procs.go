package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zombie/internal/server"
)

// peakRSS reads a process's VmHWM — the peak resident set — from /proc, in
// MiB. The benchmark is Linux-only for this reason.
func peakRSS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func selfPeakRSS() float64 { return peakRSS(os.Getpid()) }

// child is one zombie-serve process under test.
type child struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	// rss is the peak resident set sampled just before the process was
	// stopped; stopped guards against reaping twice.
	rss     float64
	stopped bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts a zombie-serve child on a free loopback port and
// returns once /healthz answers. The child is registered with the env, so
// it is reaped however the pass ends.
func (e *env) startServer(name string, parent spanID, args ...string) (*child, error) {
	sp := e.tr.start(parent, 0, 0, "server.start")
	defer e.tr.end(sp)
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(e.cfg.workDir, fmt.Sprintf("%s-%d.log", name, port)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.cfg.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, url: "http://" + addr, log: logf}
	e.children = append(e.children, c)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("%s did not become healthy on %s (see %s)", name, addr, logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop samples the child's peak RSS, asks it to drain with SIGINT, kills it
// if it has not exited in ten seconds, and waits until it has ended.
func (c *child) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.rss = peakRSS(c.cmd.Process.Pid)
	c.cmd.Process.Signal(syscall.SIGINT) //nolint:errcheck // already gone is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		c.cmd.Wait() //nolint:errcheck // exit status of a stopped server is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // see above
		<-done
	}
	c.log.Close()
}

// client is one closed-loop caller with a single connection to a server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out (when non-nil).
// A status other than want is an error carrying the server's message.
func (c *client) do(method, path string, body, out any, want int) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{method: method, path: path, code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

type statusError struct {
	method, path string
	code         int
	body         string
}

func (s *statusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", s.method, s.path, s.code, s.body)
}

// follow reads a run's server-sent curve stream until the server closes
// it, and returns the terminal RunInfo of its final "status" event.
func (c *client) follow(id string) (*server.RunInfo, error) {
	resp, err := c.hc.Get(c.base + "/runs/" + id + "/curve?follow=true")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{method: "GET", path: "/runs/" + id + "/curve", code: resp.StatusCode}
	}
	var info *server.RunInfo
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			event = rest
		} else if rest, ok := strings.CutPrefix(line, "data: "); ok && event == "status" {
			info = &server.RunInfo{}
			if err := json.Unmarshal([]byte(rest), info); err != nil {
				return nil, fmt.Errorf("run %s status event: %w", id, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if info == nil {
		return nil, fmt.Errorf("run %s: curve stream closed without a status event", id)
	}
	return info, nil
}

// metrics fetches the server's flat /metrics map.
func (c *client) metrics() (map[string]float64, error) {
	out := map[string]float64{}
	err := c.do("GET", "/metrics", nil, &out, http.StatusOK)
	return out, err
}
