package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"relperf"
	"relperf/internal/fleet"
)

// probeStudies is how many of a traced window's results the in-process
// handler probe reads.
const probeStudies = 64

// probeOps is the op count of the in-process handler probe.
const probeOps = 20000

// studyRoute is the obs route label of GET /v1/studies/{fingerprint}.
const studyRoute = `{route="GET /v1/studies/{fingerprint}"}`

// probeWriter is the probe's http.ResponseWriter: it keeps the body of the
// last response and reuses its header map and buffer, so the probe counts
// the handler's allocations only.
type probeWriter struct {
	h    http.Header
	body bytes.Buffer
}

func (w *probeWriter) Header() http.Header         { return w.h }
func (w *probeWriter) WriteHeader(int)             {}
func (w *probeWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// probeHandler times GET /v1/studies/{fp} through fleet.Server.ServeHTTP in
// process, with no socket. A scheduler with the daemons' seed and one
// worker computes up to probeStudies of the window's studies, then probeOps
// reads of them in a seeded order are timed and their allocations counted.
// Every body must equal the result the window received for that study: the
// first read of each, untimed, by digest, and the timed reads byte for byte
// against it. The op of a study whose body differs is marked failed.
func probeHandler(w *window, in inputs, spec func(int) relperf.StudySpec, seed uint64) (usPerOp, allocsPerOp float64, err error) {
	ok := w.okOps()
	if len(ok) > probeStudies {
		ok = ok[:probeStudies]
	}
	if len(ok) == 0 {
		return 0, 0, fmt.Errorf("handler probe: no verified op to read")
	}
	specs := make([]relperf.StudySpec, len(ok))
	for k, op := range ok {
		specs[k] = spec(in.loopN(op.i))
	}
	sched := fleet.New(fleet.Options{Workers: 1, Seed: seed})
	defer sched.Close()
	if _, err := sched.SubmitSpecs(specs); err != nil {
		return 0, 0, err
	}
	reqs := make([]*http.Request, len(ok))
	for k, op := range ok {
		if _, err := sched.Result(context.Background(), op.fp); err != nil {
			return 0, 0, err
		}
		if reqs[k], err = http.NewRequest(http.MethodGet, "/v1/studies/"+op.fp, nil); err != nil {
			return 0, 0, err
		}
	}
	srv := fleet.NewServer(sched)
	rw := &probeWriter{h: http.Header{}}
	want := make([][]byte, len(ok))
	differs := make([]bool, len(ok))
	for k := range ok {
		clear(rw.h)
		rw.body.Reset()
		srv.ServeHTTP(rw, reqs[k])
		want[k] = bytes.Clone(rw.body.Bytes())
		differs[k] = sha256.Sum256(bytes.TrimSuffix(want[k], []byte{'\n'})) != ok[k].sum
	}
	order := rand.New(rand.NewPCG(seed, 0x6f72646572)).Perm(len(ok)) // "order"
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		k := order[i%len(ok)]
		clear(rw.h)
		rw.body.Reset()
		srv.ServeHTTP(rw, reqs[k])
		if !bytes.Equal(rw.body.Bytes(), want[k]) {
			differs[k] = true
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	for k, d := range differs {
		if d {
			w.fail(ok[k].i, fmt.Errorf("%w: in-process GET of %s differs from the daemons' result", errMismatch, ok[k].fp))
		}
	}
	return float64(elapsed) / float64(time.Microsecond) / probeOps, float64(ms1.Mallocs-ms0.Mallocs) / probeOps, nil
}
