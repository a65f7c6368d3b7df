package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// syncBuffer is a bytes.Buffer safe for the exec copier goroutine and
// the reader at once; it also reports the address from qosd's
// "listening on" line.
type syncBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the listen address once; nil for stderr
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, _ := b.buf.Write(p)
	if b.addr != nil {
		sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				b.addr <- addr
				b.addr = nil
				break
			}
		}
	}
	return n, nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is a qosd subprocess bound to an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout syncBuffer
	stderr syncBuffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// bootTimeout bounds how long a daemon may take to print its address
// and answer /healthz.
const bootTimeout = 20 * time.Second

// startDaemon runs qosd with args plus -addr 127.0.0.1:0, reads the
// bound address from its "listening on" line and polls /healthz until
// it answers. The child is killed if this process dies first.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	d.stdout.addr = addrCh
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qosd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(bootTimeout)
	select {
	case d.addr = <-addrCh:
	case <-d.exited:
		return nil, d.failure(fmt.Errorf("qosd exited before listening: %v", d.err))
	case <-deadline:
		d.kill()
		return nil, d.failure(errors.New("qosd printed no listen address"))
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.url("/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, d.failure(fmt.Errorf("qosd exited before /healthz answered: %v", d.err))
		case <-deadline:
			d.kill()
			return nil, d.failure(errors.New("/healthz never answered"))
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// failure decorates err with the daemon's stderr.
func (d *daemon) failure(err error) error {
	return fmt.Errorf("%w\nqosd stderr:\n%s", err, d.stderr.String())
}

// kill stops the daemon hard and waits for it; safe to call on any
// path, any number of times.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// drainTimeout bounds the SIGTERM drain before the daemon is killed.
const drainTimeout = 30 * time.Second

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// drainTimeout.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return d.failure(fmt.Errorf("signal qosd: %w", err))
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.kill()
		return d.failure(errors.New("qosd did not drain within the timeout"))
	}
	if d.err != nil {
		return d.failure(fmt.Errorf("qosd drain: %w", d.err))
	}
	return nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != os.Getpid() {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// promValues scrapes /metrics into a name{labels} → value map.
func promValues(hc *http.Client, d *daemon) (map[string]float64, error) {
	resp, err := hc.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// liveTasks sums the daemon's runtime task gauges over every state but
// done.
func liveTasks(m map[string]float64) int {
	n := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "qos_rtsys_tasks{") && !strings.Contains(k, `"done"`) {
			n += v
		}
	}
	return int(n)
}
