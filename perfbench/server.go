package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// maxClients bounds the closed-loop clients and the connections they
// hold: one per core of the two-core host the benchmark is sized for
// (cmd/loadgen's default of 8 would queue requests behind the
// server's cores). publish runs this many: its chains never share a
// request, and one client left the server at 1.55 of its 2 cores busy
// (14.9 chains/s) where two reach 1.94 (18.8 chains/s).
const maxClients = 2

// target is a server under test: its base URL, the pid whose /proc
// entries the CPU and memory readings come from, and how to stop it.
type target struct {
	base string
	pid  int
	stop func() error
}

// tail keeps the last few KiB a child process writes, for error
// reports; exec copies into it from its own goroutine.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// bootServe starts a fresh serve process with the given flags and
// returns once GET /healthz answers. The returned stop sends SIGTERM
// (the server drains and exits), falling back to SIGKILL, and always
// waits for the process to end.
func bootServe(path string, flags []string) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	cmd := exec.Command(path, append([]string{"-addr", addr}, flags...)...)
	logs := &tail{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	// A benchmark that dies mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	exited := make(chan error, 1)
	// The reaper: stop and the boot loop below both wait on it.
	go func() { exited <- cmd.Wait() }()
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			// Already gone: the reaper has (or will have) its status.
			<-exited
			return nil
		}
		select {
		case <-exited:
			return nil
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill() // the wait below reports the outcome
			<-exited
			return fmt.Errorf("serve ignored SIGTERM for 15s")
		}
	}
	base := "http://" + addr
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-exited:
			return nil, fmt.Errorf("serve exited during boot (%v): %s", err, logs)
		default:
		}
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // draining only; the status decides
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return &target{base: base, pid: cmd.Process.Pid, stop: stop}, nil
			}
		}
		if time.Now().After(deadline) {
			serr := stop()
			return nil, fmt.Errorf("serve not ready after 30s (stop: %v): %s", serr, logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// client is the benchmark's HTTP/JSON client. Its transport holds at
// most maxClients connections, shared by the closed-loop clients.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxClients,
		MaxIdleConnsPerHost: maxClients,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// close drops the transport's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body as JSON and returns the raw response body. A non-2xx
// status is an error carrying the server's message.
func (c *client) post(path string, body any) ([]byte, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: reading body: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// postInto is post decoding the response into out.
func (c *client) postInto(path string, body, out any) ([]byte, error) {
	b, err := c.post(path, body)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return nil, fmt.Errorf("POST %s: decoding: %w", path, err)
	}
	return b, nil
}

// get fetches path and returns the body; non-200 is an error.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: reading body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
