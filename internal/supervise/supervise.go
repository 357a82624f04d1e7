// Package supervise keeps a child process alive: a dependency-free
// process supervisor in the forever.Run shape. Run starts the configured
// command, optionally probes an HTTP readiness URL before declaring the
// child ready, and restarts it whenever it exits — with capped-exponential
// backoff (deterministically jittered by xrand.Mix, the same discipline as
// the grid's retry and heartbeat backoff) so a sick child never turns into
// a fork busy-loop, and a restart budget so a child that can never come up
// parks the supervisor in a loud crash-loop state instead of restarting
// forever. Shutdown is clean: SIGTERM first, SIGKILL after a grace window.
//
// relperfd workers run under cmd/relperfmon (this package behind flags);
// the chaos soak harness (internal/chaos) embeds Supervisor directly and
// kills, pauses and dooms its children to prove the self-healing contract.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"relperf/internal/obs"
	"relperf/internal/xrand"
)

// State is the supervisor's externally visible lifecycle position.
type State string

const (
	// StateIdle: Run has not started yet.
	StateIdle State = "idle"
	// StateStarting: the child is launching (or being readiness-probed).
	StateStarting State = "starting"
	// StateReady: the child is up (and, with a ReadyURL, answered its
	// readiness probe).
	StateReady State = "ready"
	// StateBackoff: the child exited; the supervisor is waiting out the
	// restart backoff.
	StateBackoff State = "backoff"
	// StateCrashLoop: the restart budget is exhausted — the supervisor
	// gave up and Run returned ErrCrashLoop.
	StateCrashLoop State = "crash-loop"
	// StateStopped: Run returned after a clean shutdown.
	StateStopped State = "stopped"
)

// stateCode maps states onto the supervise_state gauge. The mapping is
// part of the metric's contract (documented in its HELP string).
func stateCode(s State) int64 {
	switch s {
	case StateStarting:
		return 1
	case StateReady:
		return 2
	case StateBackoff:
		return 3
	case StateCrashLoop:
		return 4
	case StateStopped:
		return 5
	}
	return 0
}

// ErrCrashLoop is returned by Run when the child exceeded the restart
// budget inside the restart window — the child is structurally unable to
// stay up, and restarting it further would just burn the machine.
var ErrCrashLoop = errors.New("supervise: restart budget exhausted; child is crash-looping")

// Defaults for Config's zero values.
const (
	DefaultBackoffBase   = 100 * time.Millisecond
	DefaultBackoffMax    = 5 * time.Second
	DefaultRestartBudget = 5
	DefaultRestartWindow = time.Minute
	DefaultReadyTimeout  = 30 * time.Second
	DefaultShutdownGrace = 5 * time.Second
	// readyProbeInterval is how often the readiness URL is polled while
	// the child is starting.
	readyProbeInterval = 25 * time.Millisecond
)

// Config configures a Supervisor.
type Config struct {
	// Name labels the supervisor's metrics and log lines; defaults to
	// Command[0].
	Name string
	// Command is the child's argv; Command[0] is the binary.
	Command []string
	// Env is extra environment appended to the parent's for every start.
	Env []string
	// StartEnv, when set, returns extra environment for one specific
	// start, appended after Env. The chaos harness uses it to doom a
	// single restart attempt (RELPERF_FAULTPOINT) without touching the
	// steady-state environment.
	StartEnv func() []string
	// Stdout and Stderr receive the child's output; nil inherits the
	// supervisor's own.
	Stdout, Stderr io.Writer
	// BackoffBase is the first restart's backoff window (default 100ms);
	// each consecutive failed start doubles it, capped at BackoffMax
	// (default 5s). The delay is drawn from [window/2, window] keyed by
	// (JitterKey, attempt) — deterministic per supervisor, decorrelated
	// across a fleet.
	BackoffBase time.Duration
	// BackoffMax caps the backoff window growth.
	BackoffMax time.Duration
	// RestartBudget is how many restarts are tolerated inside
	// RestartWindow before the supervisor declares a crash-loop and gives
	// up (default 5 per minute).
	RestartBudget int
	// RestartWindow is the sliding window the budget counts over.
	RestartWindow time.Duration
	// ReadyURL, when set, is polled with GET until it answers 200 before
	// the child counts as ready (relperfd's /v1/healthz). While a child
	// keeps dying before readiness, the backoff exponent keeps growing;
	// reaching ready resets it.
	ReadyURL string
	// ReadyTimeout bounds the readiness probe per start; a child still
	// not ready when it expires is killed and counted as a failed start
	// (default 30s).
	ReadyTimeout time.Duration
	// ShutdownGrace is how long the child gets between SIGTERM and
	// SIGKILL at shutdown (default 5s).
	ShutdownGrace time.Duration
	// JitterKey seeds the backoff jitter; leave 0 to derive it from Name.
	JitterKey uint64
	// Logf receives supervisor diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Obs receives supervise_restarts_total and supervise_state; nil
	// disables metrics.
	Obs *obs.Obs
}

// Supervisor keeps one child command alive. Construct with New, drive
// with Run; State, Restarts, Pid and Signal are safe concurrently.
type Supervisor struct {
	cfg      Config
	jitter   uint64
	restarts atomic.Uint64

	restartsMetric *obs.Counter
	stateMetric    *obs.Gauge

	mu    sync.Mutex
	state State
	cmd   *exec.Cmd // current child; nil when none is running
}

// New returns an idle supervisor for the command.
func New(cfg Config) (*Supervisor, error) {
	if len(cfg.Command) == 0 {
		return nil, errors.New("supervise: empty command")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Command[0]
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	if cfg.RestartBudget <= 0 {
		cfg.RestartBudget = DefaultRestartBudget
	}
	if cfg.RestartWindow <= 0 {
		cfg.RestartWindow = DefaultRestartWindow
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = DefaultReadyTimeout
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = DefaultShutdownGrace
	}
	s := &Supervisor{cfg: cfg, state: StateIdle}
	s.jitter = cfg.JitterKey
	if s.jitter == 0 {
		for _, b := range []byte(cfg.Name) {
			s.jitter = xrand.Mix(s.jitter, uint64(b))
		}
	}
	reg := cfg.Obs.Reg()
	s.restartsMetric = reg.Counter("supervise_restarts_total",
		"Child restarts performed by the supervisor.", obs.L("child", cfg.Name))
	s.stateMetric = reg.Gauge("supervise_state",
		"Supervisor state: 0 idle, 1 starting, 2 ready, 3 backoff, 4 crash-loop, 5 stopped.",
		obs.L("child", cfg.Name))
	return s, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("supervise[%s]: %s", s.cfg.Name, fmt.Sprintf(format, args...))
	}
}

func (s *Supervisor) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
	s.stateMetric.Set(stateCode(st))
}

// State returns the supervisor's current lifecycle state.
func (s *Supervisor) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Restarts returns how many times the child has been restarted (the
// first start is not a restart).
func (s *Supervisor) Restarts() uint64 { return s.restarts.Load() }

// Pid returns the running child's PID, or 0 when no child is up.
func (s *Supervisor) Pid() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil || s.cmd.Process == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

// Signal delivers sig to the running child — the chaos harness's kill
// and pause lever. Returns an error when no child is up.
func (s *Supervisor) Signal(sig os.Signal) error {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return errors.New("supervise: no child running")
	}
	return cmd.Process.Signal(sig)
}

// RestartDelay is the pure restart backoff schedule (xrand.Backoff): the
// window doubles from base per consecutive failed start (attempt 1 = first
// restart), capped at max, with the jitter keyed by (key, attempt) so a
// fleet of supervisors restarting children after a shared failure spreads
// its restarts across the window instead of stampeding.
func RestartDelay(base, max time.Duration, attempt int, key uint64) time.Duration {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max < base {
		max = base
	}
	return xrand.Backoff(base, max, attempt-1, xrand.Mix(key, uint64(attempt)))
}

// Run supervises the child until ctx is cancelled (clean shutdown: nil)
// or the restart budget is exhausted (ErrCrashLoop). Each iteration
// starts the child, waits for readiness when a ReadyURL is configured,
// then waits for the child to exit; every exit consumes restart budget
// and pays a jittered capped-exponential backoff before the next start.
func (s *Supervisor) Run(ctx context.Context) error {
	attempt := 0 // consecutive starts that never reached ready
	var exits []time.Time
	for {
		if ctx.Err() != nil {
			s.setState(StateStopped)
			return nil
		}
		s.setState(StateStarting)
		cmd, exitCh, err := s.start()
		started := time.Now()
		if err != nil {
			s.logf("start failed: %v", err)
		} else {
			ready, exited := s.awaitReady(ctx, cmd, exitCh)
			if ready {
				attempt = 0
				s.setState(StateReady)
				s.logf("child ready (pid %d)", cmd.Process.Pid)
			}
			if !exited {
				select {
				case err := <-exitCh:
					s.logf("child exited after %s: %v", time.Since(started).Round(time.Millisecond), err)
				case <-ctx.Done():
					s.terminate(cmd, exitCh)
					s.reap(cmd)
					s.setState(StateStopped)
					return nil
				}
			}
			s.reap(cmd)
		}
		if ctx.Err() != nil {
			s.setState(StateStopped)
			return nil
		}

		// The child is down. Charge the restart budget over the sliding
		// window; past it, park in crash-loop instead of spinning.
		now := time.Now()
		exits = append(exits, now)
		cutoff := now.Add(-s.cfg.RestartWindow)
		kept := exits[:0]
		for _, t := range exits {
			if t.After(cutoff) {
				kept = append(kept, t)
			}
		}
		exits = kept
		if len(exits) > s.cfg.RestartBudget {
			s.setState(StateCrashLoop)
			s.logf("%d exits within %s (budget %d): giving up", len(exits), s.cfg.RestartWindow, s.cfg.RestartBudget)
			return fmt.Errorf("%w (%d exits in %s)", ErrCrashLoop, len(exits), s.cfg.RestartWindow)
		}

		attempt++
		d := RestartDelay(s.cfg.BackoffBase, s.cfg.BackoffMax, attempt, s.jitter)
		s.setState(StateBackoff)
		s.logf("restarting in %s (attempt %d, %d/%d budget used)", d, attempt, len(exits), s.cfg.RestartBudget)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.setState(StateStopped)
			return nil
		}
		s.restarts.Add(1)
		s.restartsMetric.Inc()
	}
}

// start launches one child process and a goroutine waiting on it. The
// child leads its own process group so that reap can sweep anything it
// forked without touching the supervisor's own group.
func (s *Supervisor) start() (*exec.Cmd, chan error, error) {
	cmd := exec.Command(s.cfg.Command[0], s.cfg.Command[1:]...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	env := os.Environ()
	env = append(env, s.cfg.Env...)
	if s.cfg.StartEnv != nil {
		env = append(env, s.cfg.StartEnv()...)
	}
	cmd.Env = env
	cmd.Stdout = s.cfg.Stdout
	cmd.Stderr = s.cfg.Stderr
	if cmd.Stdout == nil {
		cmd.Stdout = os.Stdout
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.cmd = cmd
	s.mu.Unlock()
	exitCh := make(chan error, 1)
	go func() { exitCh <- cmd.Wait() }()
	return cmd, exitCh, nil
}

// reap forgets the current child after it has been waited on, and sweeps
// its process group with SIGKILL so an exiting incarnation cannot leave
// orphaned grandchildren holding ports or output pipes. ESRCH (the group
// is already empty) is the common, ignored case.
func (s *Supervisor) reap(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	s.mu.Lock()
	s.cmd = nil
	s.mu.Unlock()
}

// awaitReady gates on the readiness probe. Returns (ready, exited):
// without a ReadyURL the child is ready by virtue of having started; with
// one, the URL is polled until 200 (ready), the child exits (not ready,
// exited — the exit error is already consumed from exitCh only when the
// probe observed it), ctx ends, or ReadyTimeout expires — in which case
// the child is killed and counted as a failed start.
func (s *Supervisor) awaitReady(ctx context.Context, cmd *exec.Cmd, exitCh chan error) (ready, exited bool) {
	if s.cfg.ReadyURL == "" {
		return true, false
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(s.cfg.ReadyTimeout)
	tick := time.NewTicker(readyProbeInterval)
	defer tick.Stop()
	for {
		select {
		case err := <-exitCh:
			s.logf("child exited before readiness: %v", err)
			return false, true
		case <-ctx.Done():
			return false, false
		case <-tick.C:
			resp, err := client.Get(s.cfg.ReadyURL)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return true, false
				}
			}
			if time.Now().After(deadline) {
				s.logf("readiness probe of %s timed out after %s; killing the child", s.cfg.ReadyURL, s.cfg.ReadyTimeout)
				_ = cmd.Process.Kill()
				<-exitCh
				return false, true
			}
		}
	}
}

// terminate shuts the child down cleanly: SIGTERM, a grace window, then
// SIGKILL. exitCh is the waiter channel from start.
func (s *Supervisor) terminate(cmd *exec.Cmd, exitCh chan error) {
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	t := time.NewTimer(s.cfg.ShutdownGrace)
	defer t.Stop()
	select {
	case <-exitCh:
		s.logf("child exited on SIGTERM")
	case <-t.C:
		s.logf("child ignored SIGTERM for %s; killing", s.cfg.ShutdownGrace)
		_ = cmd.Process.Kill()
		<-exitCh
	}
}
