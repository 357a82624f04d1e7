package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"relperf/internal/xrand"
)

// Handler returns the coordinator's HTTP surface, mounted by relperfd
// under /v1/grid/ alongside the ordinary fleet endpoints:
//
//	POST /v1/grid/workers    worker heartbeat (register / refresh lease)
//	GET  /v1/grid/workers    live workers + registry and dispatch counters
//	GET  /v1/grid/tasks      recent dispatch journal (task envelopes)
//	GET  /v1/grid/metrics    federated exposition: coordinator + every
//	                         worker's series re-labeled worker="<id>"
//	GET  /v1/gridz           JSON fleet summary (health, epochs, digests,
//	                         heartbeat ages, scrape freshness)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grid/workers", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/grid/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/grid/tasks", c.handleTasks)
	mux.HandleFunc("GET /v1/grid/metrics", c.handleGridMetrics)
	mux.HandleFunc("GET /v1/gridz", c.handleGridz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// heartbeatResponse acknowledges a registration and tells the worker how
// long its lease lasts, so its heartbeat interval can adapt.
type heartbeatResponse struct {
	Status string `json:"status"`
	TTLMs  int64  `json:"ttl_ms"`
}

// maxHeartbeatBody bounds POST /v1/grid/workers bodies.
const maxHeartbeatBody = 1 << 16

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var info WorkerInfo
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHeartbeatBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&info); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("grid: decoding heartbeat: %v", err)})
		return
	}
	// A worker keyed with a different suite seed would compute different
	// bytes for the same fingerprint; refusing its registration is what
	// keeps a misconfigured node from ever being picked.
	if info.Seed != c.cfg.Seed {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("grid: worker seed %d does not match coordinator seed %d", info.Seed, c.cfg.Seed),
		})
		return
	}
	if err := c.reg.Heartbeat(info); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	c.heartbeats.Inc()
	writeJSON(w, http.StatusOK, heartbeatResponse{Status: "ok", TTLMs: c.reg.TTL().Milliseconds()})
}

// workersResponse is the GET /v1/grid/workers body: every registered
// worker with its health-machine state and consecutive-failure count,
// plus registry occupancy and dispatch counters.
type workersResponse struct {
	Workers  []WorkerStatus `json:"workers"`
	Registry RegistryStats  `json:"registry"`
	Dispatch Stats          `json:"dispatch"`
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := c.reg.Workers()
	if workers == nil {
		workers = []WorkerStatus{}
	}
	writeJSON(w, http.StatusOK, workersResponse{Workers: workers, Registry: c.reg.Stats(), Dispatch: c.Stats()})
}

// tasksResponse is the GET /v1/grid/tasks body: the dispatch journal,
// newest first.
type tasksResponse struct {
	Tasks []TaskRecord `json:"tasks"`
}

func (c *Coordinator) handleTasks(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	tasks := make([]TaskRecord, len(c.journal))
	copy(tasks, c.journal)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, tasksResponse{Tasks: tasks})
}

// Heartbeat announces a worker to a coordinator once and returns the
// lease TTL the coordinator granted (0 when the coordinator predates the
// field).
func Heartbeat(ctx context.Context, client *http.Client, coordinatorURL string, info WorkerInfo) (time.Duration, error) {
	body, err := json.Marshal(info)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+"/v1/grid/workers", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return 0, fmt.Errorf("grid: coordinator refused heartbeat: %d %s", resp.StatusCode, e.Error)
	}
	var hr heartbeatResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return 0, nil
	}
	return time.Duration(hr.TTLMs) * time.Millisecond, nil
}

// minHeartbeatInterval floors the adaptive interval so a tiny coordinator
// TTL cannot turn workers into heartbeat busy-loops.
const minHeartbeatInterval = 100 * time.Millisecond

// DefaultHeartbeatTimeout caps one heartbeat request when RunHeartbeats
// is handed a nil client; relperfd's -grid-heartbeat-timeout overrides it
// by passing an explicit client.
const DefaultHeartbeatTimeout = 10 * time.Second

// heartbeatMaxBackoff caps the unreachable-coordinator backoff: long
// enough that a dead coordinator is not hammered, short enough that a
// failed-over one regains its whole fleet within seconds.
const heartbeatMaxBackoff = 10 * time.Second

// heartbeatDelay is the wait before the next heartbeat: the healthy
// cadence while the coordinator answers; while it does not, the
// xrand.Backoff window doubles per consecutive failure up to
// heartbeatMaxBackoff, with the jitter keyed by (worker key, failure
// count) so a fleet backing off from one dead coordinator re-announces
// spread across the window, not in lockstep.
func heartbeatDelay(interval time.Duration, failures int, key uint64) time.Duration {
	if failures <= 0 {
		return interval
	}
	return xrand.Backoff(interval, heartbeatMaxBackoff, failures, xrand.Mix(key, uint64(failures)))
}

// RunHeartbeats announces the worker to the coordinator until ctx is
// done, starting immediately. interval <= 0 means adaptive: one third of
// the lease TTL each successful heartbeat reports (DefaultTTL/3 until the
// first reply), so workers track the coordinator's -grid-ttl instead of
// assuming the default. While the coordinator is unreachable the worker
// backs off exponentially (capped — see heartbeatDelay) instead of
// drumming on a dead address; the first successful beat after an outage
// IS the re-announcement, and it resets the cadence immediately, so a
// recovered (or failed-over) coordinator regains the worker within one
// backoff window and keeps it at the healthy rate from then on.
func RunHeartbeats(ctx context.Context, client *http.Client, coordinatorURL string, info WorkerInfo, interval time.Duration, logf func(format string, args ...any)) {
	RunHeartbeatsFunc(ctx, client, coordinatorURL, func() WorkerInfo { return info }, interval, logf)
}

// RunHeartbeatsFunc is RunHeartbeats with a per-beat registration
// callback: info is invoked before every heartbeat, so fields that
// change over the worker's life — the stats digest above all — ride each
// beat fresh instead of freezing at startup. The identity fields (ID,
// URL, Seed, Epoch) must stay stable across calls; only the digest is
// expected to move.
func RunHeartbeatsFunc(ctx context.Context, client *http.Client, coordinatorURL string, info func() WorkerInfo, interval time.Duration, logf func(format string, args ...any)) {
	adaptive := interval <= 0
	if adaptive {
		interval = DefaultTTL / 3
	}
	if client == nil {
		client = &http.Client{Timeout: DefaultHeartbeatTimeout}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// The jitter key is the worker's identity: every worker of a downed
	// coordinator walks the same capped-doubling windows but draws its own
	// delay inside each, so the recovered coordinator absorbs the fleet's
	// re-announcements over a window instead of one synchronized burst.
	key := idHash(info().ID)
	failures := 0
	registered := false
	beat := func() {
		cur := info()
		ttl, err := Heartbeat(ctx, client, coordinatorURL, cur)
		if err != nil {
			failures++
			registered = false
			if ctx.Err() == nil {
				logf("grid: heartbeat to %s: %v (retrying in %s)", coordinatorURL, err, heartbeatDelay(interval, failures, key))
			}
			return
		}
		if !registered {
			logf("grid: registered with coordinator %s as %s (lease %s)", coordinatorURL, cur.ID, ttl)
		}
		registered = true
		failures = 0
		if adaptive && ttl > 0 {
			next := ttl / 3
			if next < minHeartbeatInterval {
				next = minHeartbeatInterval
			}
			interval = next
		}
	}
	timer := time.NewTimer(0) // first beat immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			beat()
			timer.Reset(heartbeatDelay(interval, failures, key))
		}
	}
}
