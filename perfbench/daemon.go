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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds every readiness wait: a daemon printing its address,
// a grid registering its workers.
const readyTimeout = 60 * time.Second

// daemon is one relperfd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string        // host:port it serves on
	done chan struct{} // closed once its log pipe has drained
}

// startDaemon launches relperfd with args plus -addr addr and waits for the
// "serving on <addr>" line of its log, which it prints once it listens. The
// log goes to name.log in dir.
func startDaemon(bin, dir, name, addr string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no relperfd binary given (-relperfd)")
	}
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	// Should the benchmark itself be killed, its daemons go with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		defer logFile.Close()
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					addrCh <- rest[:j]
					sent = true
				}
			}
		}
		// Drain whatever remains so the process never blocks on its log.
		_, _ = io.Copy(logFile, pipe)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		err = errors.New("exited before serving")
	case <-time.After(readyTimeout):
		err = fmt.Errorf("not serving after %s", readyTimeout)
	}
	_ = d.stop()
	return nil, fmt.Errorf("%s %w; log: %s", name, err, tail(logPath))
}

// stop sends SIGTERM, escalates to SIGKILL if the daemon has not exited
// after its shutdown grace, and waits for the process and its log pipe.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return errors.New("relperfd did not exit on SIGTERM; killed")
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// get fetches path and returns the status and body.
func (d *daemon) get(client *http.Client, path string) (int, []byte, error) {
	resp, err := client.Get(d.url(path))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metrics scrapes /v1/metrics.
func (d *daemon) metrics(client *http.Client) (series, error) {
	code, b, err := d.get(client, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %d", code)
	}
	return parseExposition(b)
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// stopAll stops every daemon and returns the first error.
func stopAll(ds ...*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// daemonUsage returns each daemon's CPU seconds and their summed VmHWM.
func daemonUsage(ds ...*daemon) (cpu []float64, rssMB float64, err error) {
	for _, d := range ds {
		c, err := procCPUSeconds(d.pid())
		if err != nil {
			return nil, 0, err
		}
		r, err := peakRSSMB(strconv.Itoa(d.pid()))
		if err != nil {
			return nil, 0, err
		}
		cpu = append(cpu, c)
		rssMB += r
	}
	return cpu, rssMB, nil
}

// newClient returns one keep-alive HTTP client with its own connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// readBody reads a response body into buf, reusing its storage.
func readBody(resp *http.Response, buf *bytes.Buffer) error {
	defer resp.Body.Close()
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	return err
}
