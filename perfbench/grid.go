package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"relperf"
	"relperf/internal/fleet"
)

// gridWorkers is the number of worker daemons behind the coordinator.
const gridWorkers = 2

// gridChecks is how many ops of a window are recomputed single-node.
const gridChecks = 8

// gridSnapshotInterval is the compaction interval of every node: the
// durability mode is -wal with periodic snapshots.
const gridSnapshotInterval = "1s"

// gridCache bounds every node's result store. Each op adds a result, so an
// unbounded store would make snapshots, memory and GC grow through the
// window; bounded, every op of the window meets the same state.
const gridCache = "256"

// postSuitesRoute is the obs route label of POST /v1/suites.
const postSuitesRoute = `{route="POST /v1/suites"}`

// workerAddr is worker k's listen address. A worker's ID is the URL it
// advertises, and the coordinator places each study on a worker by
// rendezvous hashing of that ID, so fixed addresses make the op-to-worker
// assignment, and with it which ops contend for one worker, a function of
// the seed alone. Each worker gets its own rarely used loopback address.
func workerAddr(k int) string { return fmt.Sprintf("127.83.66.%d:47301", k+1) }

// gridSystem is a coordinator and its workers, each its own relperfd on
// the WAL with one worker slot.
type gridSystem struct {
	coord   *daemon
	workers []*daemon
	seed    uint64
	in      inputs
	client  *http.Client // the op client, one keep-alive connection
	buf     *bytes.Buffer
	scrape  *http.Client
}

func startGrid(e *env) (system, error) {
	dir, err := e.nextRunDir()
	if err != nil {
		return nil, err
	}
	g := &gridSystem{seed: e.cfg.seed, in: newInputs(e.cfg.seed), scrape: newClient()}
	node := func(name string, extra ...string) []string {
		return append([]string{"-workers", "1", "-seed", strconv.FormatUint(e.cfg.seed, 10),
			"-wal", filepath.Join(dir, name+".wal"), "-snapshot", filepath.Join(dir, name+".snapshot"),
			"-snapshot-interval", gridSnapshotInterval, "-cache", gridCache}, extra...)
	}
	if g.coord, err = startDaemon(e.cfg.relperfd, dir, "coordinator", "127.0.0.1:0", node("coordinator", "-coordinator")...); err != nil {
		return nil, err
	}
	for k := 0; k < gridWorkers; k++ {
		name := fmt.Sprintf("worker%d", k+1)
		args := node(name, "-join", g.coord.url(""))
		w, err := startDaemon(e.cfg.relperfd, dir, name, workerAddr(k), args...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v; retrying on an ephemeral port, so this run's op-to-worker assignment differs\n", name, err)
			w, err = startDaemon(e.cfg.relperfd, dir, name+"-ephemeral", "127.0.0.1:0", args...)
		}
		if err != nil {
			_ = g.close()
			return nil, err
		}
		g.workers = append(g.workers, w)
	}
	if err := g.awaitWorkers(); err != nil {
		_ = g.close()
		return nil, err
	}
	g.client, g.buf = newClient(), new(bytes.Buffer)
	return g, nil
}

// awaitWorkers polls the coordinator's worker listing until every worker
// has registered healthy.
func (g *gridSystem) awaitWorkers() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		code, b, err := g.coord.get(g.scrape, "/v1/grid/workers")
		if err != nil {
			return err
		}
		var wr struct {
			Workers []struct {
				State string `json:"state"`
			} `json:"workers"`
		}
		if code == http.StatusOK && json.Unmarshal(b, &wr) == nil {
			healthy := 0
			for _, w := range wr.Workers {
				if w.State == "healthy" {
					healthy++
				}
			}
			if healthy == gridWorkers {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid workers not registered after %s: %s", readyTimeout, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gridSystem) do(i int64, rec *recorder) opRecord {
	op := opRecord{i: i}
	body, err := json.Marshal(fleet.SuiteRequest{Studies: []relperf.StudySpec{gridSpec(g.in.loopN(i))}})
	if err != nil {
		op.err = err
		return op
	}
	client, buf := g.client, g.buf
	t0 := time.Now()
	resp, err := client.Post(g.coord.url("/v1/suites"), "application/json", bytes.NewReader(body))
	if err == nil {
		err = readBody(resp, buf)
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("POST /v1/suites: %d %s", resp.StatusCode, buf.Bytes())
		}
	}
	var sr struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err == nil {
		if err = json.Unmarshal(buf.Bytes(), &sr); err == nil && len(sr.Fingerprints) != 1 {
			err = fmt.Errorf("POST /v1/suites returned %d fingerprints", len(sr.Fingerprints))
		}
	}
	t1 := time.Now()
	rec.add(i, "http.post_suites", "op", t0, t1)
	if err != nil {
		op.err = err
		return op
	}
	op.fp = sr.Fingerprints[0]
	resp, err = client.Get(g.coord.url("/v1/studies/" + op.fp))
	if err == nil {
		err = readBody(resp, buf)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/studies/%s: %d", op.fp, resp.StatusCode)
		}
	}
	t2 := time.Now()
	op.lat, op.err = t2.Sub(t0), err
	rec.add(i, "http.get_study", "op", t1, t2)
	rec.add(i, "op", "", t0, t2)
	if err != nil {
		return op
	}
	op.bytes = buf.Len()
	op.blob = bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}) // checked by the loop before buf is reused
	return op
}

func (g *gridSystem) nodes() []*daemon { return append([]*daemon{g.coord}, g.workers...) }

func (g *gridSystem) usage() ([]float64, float64, error) { return daemonUsage(g.nodes()...) }

func (g *gridSystem) verify(w *window) error {
	return checkRecomputed(w, gridChecks, g.in, gridSpec, g.seed)
}

// close stops the workers first, so the coordinator never dispatches to a
// worker that is going away.
func (g *gridSystem) close() error {
	return stopAll(append(append([]*daemon(nil), g.workers...), g.coord)...)
}

func (g *gridSystem) snapshot() ([]series, error) {
	var out []series
	for _, d := range g.nodes() {
		m, err := d.metrics(g.scrape)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func (g *gridSystem) layers(w *window, d delta, rec *recorder) (*layerReport, error) {
	ok := w.okOps()
	n := float64(len(ok))
	m := engineLayers(d, -1, gridSpec(g.in.loopN(0)))
	m["fleet.queue_wait_ms"] = d.meanMS(-1, "fleet_queue_wait_seconds", "")
	m["fleet.study_ms"] = d.meanMS(0, "fleet_study_seconds", "")
	hits, misses := d.sum("store_hits_total"), d.sum("store_misses_total")
	m["fleet.store_hit_ratio"] = ratio(hits, hits+misses)
	m["fleet.store_merges_per_op"] = d.sum("store_merges_total") / n
	m["fleet.coalesced_per_op"] = d.sum("fleet_coalesced_total") / n
	m["report.bytes_per_op"] = meanBytes(ok)
	m["http.post_suites_server_ms"] = d.meanMS(0, "http_request_seconds", postSuitesRoute)
	m["http.get_study_server_us"] = d.meanMS(0, "http_request_seconds", studyRoute) * 1000
	m["grid.attempt_ms"] = d.meanMS(0, "grid_attempt_seconds", "")
	remote, fallbacks := d.of(0, "grid_remote_total"), d.of(0, "grid_fallbacks_total")
	m["grid.remote_ratio"] = ratio(remote, remote+fallbacks)
	m["grid.retries_per_op"] = d.of(0, "grid_retries_total") / n
	m["wal.appends_per_op"] = d.sum("wal_appends_total") / n
	m["wal.append_ms"] = d.meanMS(-1, "wal_append_seconds", "")
	m["wal.fsync_ms"] = d.meanMS(-1, "wal_fsync_seconds", "")

	serverPost := m["http.post_suites_server_ms"]
	queue := m["fleet.queue_wait_ms"]
	engine := m["engine.measure_ms"] + m["engine.cluster_ms"] + m["engine.finalize_ms"]
	attempt := m["grid.attempt_ms"]
	study := m["fleet.study_ms"]
	rep := &layerReport{metrics: m, perOp: map[int64][]float64{},
		rows: []string{"http.post_suites_server", "http.post_transport", "fleet.queue_wait",
			"engine.worker", "grid.dispatch_other", "fleet.study_other"}}
	var transport float64
	for i, spans := range rec.byOp() {
		post, found := spans["http.post_suites"]
		if !found {
			continue
		}
		rep.perOp[i] = []float64{serverPost, post.ms() - serverPost, queue,
			engine, attempt - engine, study - attempt}
		transport += post.ms() - serverPost
	}
	m["http.transport_us"] = ratio(transport, float64(len(rep.perOp))) * 1000

	us, allocs, err := probeHandler(w, g.in, gridSpec, g.seed)
	if err != nil {
		return nil, err
	}
	m["fleet.handler_us"], m["fleet.handler_allocs_per_op"] = us, allocs
	return rep, nil
}
