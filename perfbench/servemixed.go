package main

// The serve-mixed workload: a closed loop of nproc clients POSTing to an
// in-process serving layer on a loopback listener. Set-up fills a result
// store with a warm set; most requests then read windows of it back, some
// simulate fresh cells (store writes), and a few aggregate.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// keptFresh is how many fresh cells verify re-runs directly.
const keptFresh = 16

// aggregateMetrics are the report columns aggregate requests ask for; both
// apply to either model.
var aggregateMetrics = []string{"cw_slots", "collisions"}

// warmSet is the store's pre-loaded content: every scenario at every seed.
type warmSet struct {
	specs     []repro.ScenarioSpec
	scenarios []repro.Scenario
	seeds     []uint64
	results   []repro.Result // [scenario*len(seeds)+seed], from direct Engine.Run
	encoded   [][]byte       // the same, as the store encodes them
	digest    string
}

// cell returns the index of (scenario si, seed sj) in results and encoded.
func (ws *warmSet) cell(si, sj int) int { return si*len(ws.seeds) + sj }

// buildWarmSet runs the warm set directly, without a store: WiFi n=100
// cells, whose records are about 17 KB, and abstract cells.
func buildWarmSet(ctx context.Context, s size, seed uint64, workers int) (*warmSet, error) {
	wifiN, absN, nSeeds := 100, 2000, 8
	if s == tiny {
		wifiN, absN, nSeeds = 6, 50, 3
	}
	ws := &warmSet{seeds: repro.Seeds(seed, nSeeds)}
	for _, a := range repro.Algorithms() {
		ws.specs = append(ws.specs, repro.ScenarioSpec{Model: "wifi", Algorithm: a, N: wifiN, Payload: 64})
	}
	for _, a := range repro.Algorithms() {
		ws.specs = append(ws.specs, repro.ScenarioSpec{Model: "abstract", Algorithm: a, N: absN})
	}
	var runs []repro.Scenario
	for _, sp := range ws.specs {
		sc, err := sp.Scenario()
		if err != nil {
			return nil, err
		}
		ws.scenarios = append(ws.scenarios, sc)
		for _, sd := range ws.seeds {
			runs = append(runs, sc.WithOptions(repro.WithSeed(sd)))
		}
	}
	eng := &repro.Engine{Workers: workers}
	var err error
	if ws.results, err = eng.RunMany(ctx, runs); err != nil {
		return nil, err
	}
	h := sha256.New()
	for i, r := range ws.results {
		if err := checkCell(repro.Cell{Result: r}); err != nil {
			return nil, fmt.Errorf("warm cell %s: %w", runs[i], err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		ws.encoded = append(ws.encoded, b)
		h.Write(b)
	}
	ws.digest = hex.EncodeToString(h.Sum(nil))
	return ws, nil
}

// serveRun is a set-up serve-mixed workload.
type serveRun struct {
	seed  uint64
	nproc int
	warm  *warmSet
	dir   string
	store *repro.Store
	next  atomic.Int64 // index of the next request; requests are a function of (seed, index)
	size  size

	mu      sync.Mutex
	aggBody map[window][]byte // expected /v1/aggregate bodies
	fresh   []freshCell       // the first keptFresh fresh cells, for verify
}

// window selects a contiguous (wrapping) block of warm scenarios and
// seeds.
type window struct{ s0, k, j0, m int }

type freshCell struct {
	spec repro.ScenarioSpec
	seed uint64
	raw  []byte
}

func setupServe(ctx context.Context, cfg config, seed uint64) (instance, error) {
	s := &serveRun{seed: seed, nproc: runtime.NumCPU(), size: cfg.size, aggBody: map[window][]byte{}}
	var err error
	if s.warm, err = buildWarmSet(ctx, cfg.size, seed, s.nproc); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(cfg.workDir, "serve-store-"); err != nil {
		return nil, err
	}
	if err := s.fillStore(); err != nil {
		_ = os.RemoveAll(s.dir) // the fill error is the one to report
		return nil, err
	}
	// Reopen, as a restarted server would: Open replays the log.
	if s.store, err = repro.OpenStore(s.dir); err != nil {
		_ = os.RemoveAll(s.dir)
		return nil, err
	}
	// Start the server once and send one read, so set-up covers a server
	// that has answered.
	var t tally
	if err := s.measure(ctx, 0, &t, nil); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if t.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up request failed: %s", strings.Join(t.failures, "; ")), s.close())
	}
	return s, nil
}

// fillStore writes the warm set through a store handle it then closes.
func (s *serveRun) fillStore() error {
	st, err := repro.OpenStore(s.dir)
	if err != nil {
		return err
	}
	for i, sc := range s.warm.scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			return errors.Join(err, st.Close())
		}
		for j, sd := range s.warm.seeds {
			if err := st.Put(fp, sd, s.warm.results[s.warm.cell(i, j)]); err != nil {
				return errors.Join(err, st.Close())
			}
		}
	}
	return st.Close()
}

func (s *serveRun) workers() int { return s.nproc }

func (s *serveRun) digest(context.Context) (string, error) { return s.warm.digest, nil }

func (s *serveRun) close() error {
	err := s.store.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// verify re-runs the kept fresh cells with a direct Engine.Run and checks
// the served bytes against it, and checks the store recorded every write.
func (s *serveRun) verify(ctx context.Context, t *tally) error {
	eng := &repro.Engine{}
	for _, fc := range s.fresh {
		sc, err := fc.spec.Scenario()
		if err != nil {
			return err
		}
		t.attempted++
		res, err := eng.Run(ctx, sc.WithOptions(repro.WithSeed(fc.seed)))
		if err != nil {
			t.fail(fmt.Errorf("direct run of fresh cell %s seed %d: %w", sc, fc.seed, err))
			continue
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, fc.raw) {
			t.fail(fmt.Errorf("fresh cell %s seed %d: served result differs from a direct run", sc, fc.seed))
		}
	}
	t.attempted++
	if werr := s.store.Stats().WriteErr; werr != nil {
		t.fail(fmt.Errorf("store write-through: %w", werr))
	}
	return nil
}

// server is one running serving layer on a loopback listener.
type server struct {
	url    string
	hs     *http.Server
	served chan error
}

func (s *serveRun) start(spans obs.SpanSink) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := serve.New(serve.Config{Store: s.store, Workers: s.nproc, MaxSims: s.nproc, Spans: spans})
	srv := &server{
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { srv.served <- srv.hs.Serve(ln) }()
	return srv, nil
}

// stop shuts the server down and waits for Serve to return.
func (srv *server) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := srv.hs.Shutdown(ctx)
	if serr := <-srv.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// measure runs nproc closed-loop clients against a fresh server on the
// shared store until d has passed; each client sends at least one request.
func (s *serveRun) measure(ctx context.Context, d time.Duration, t *tally, lt *layerTally) error {
	var spans obs.SpanSink
	if lt != nil {
		spans = spanTally{lt}
	}
	srv, err := s.start(spans)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.nproc, DisableCompression: true,
	}}

	before := s.store.Stats()
	clients := make([]clientTally, s.nproc)
	err = timed(t, func() error {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(ct *clientTally) {
				defer wg.Done()
				for {
					s.do(ctx, client, srv.url, s.next.Add(1)-1, ct, lt)
					if !time.Now().Before(deadline) || ctx.Err() != nil {
						return
					}
				}
			}(&clients[c])
		}
		wg.Wait()
		return ctx.Err()
	})
	for i := range clients {
		ct := &clients[i]
		t.merge(&ct.tally)
		t.cells += ct.cells
		t.latencies = append(t.latencies, ct.latencies...)
		if lt != nil {
			lt.respBytes += ct.respBytes
			lt.respCell += ct.respCells
		}
	}
	if err == nil && lt != nil {
		err = s.readStats(ctx, client, srv.url, before, lt)
	}
	// Close the client side first: Shutdown waits up to five seconds for a
	// connection the transport dialed but never sent a request on.
	client.CloseIdleConnections()
	return errors.Join(err, srv.stop(ctx))
}

// clientTally is one client's share of a tally.
type clientTally struct {
	tally
	respBytes, respCells int64
}

// request is one generated request with what its response must contain.
type request struct {
	path string
	body []byte
	win  window
	kind int
	// fresh lists the cells of a write request.
	fresh []freshCell
}

const (
	readReq = iota
	freshReq
	aggregateReq
)

// gridBody is the request shape of /v1/sweep, and with Metrics set, of
// /v1/aggregate.
type gridBody struct {
	Scenarios []repro.ScenarioSpec `json:"scenarios"`
	Seeds     []uint64             `json:"seeds"`
	Metrics   []string             `json:"metrics,omitempty"`
}

// request generates request i. Seven in ten are /v1/sweep reads of a warm
// window, two in ten sweep two fresh seeds of a small WiFi scenario (so
// about one cell in ten is a store write), and one in ten aggregates a warm
// window.
func (s *serveRun) request(i int64) (request, error) {
	r := rand.New(rand.NewPCG(s.seed, uint64(i)))
	x := r.IntN(10)
	nS, nJ := len(s.warm.specs), len(s.warm.seeds)
	w := window{s0: r.IntN(nS), k: 1 + r.IntN(2), j0: r.IntN(nJ), m: 2 + r.IntN(min(3, nJ-1))}
	var specs []repro.ScenarioSpec
	var seeds []uint64
	for a := 0; a < w.k; a++ {
		specs = append(specs, s.warm.specs[(w.s0+a)%nS])
	}
	for b := 0; b < w.m; b++ {
		seeds = append(seeds, s.warm.seeds[(w.j0+b)%nJ])
	}
	var req request
	var body gridBody
	switch {
	case x < 7:
		req = request{path: "/v1/sweep", win: w, kind: readReq}
		body = gridBody{Scenarios: specs, Seeds: seeds}
	case x < 9:
		n := 20
		if s.size == tiny {
			n = 4
		}
		sp := repro.ScenarioSpec{Model: "wifi", Algorithm: repro.Algorithms()[r.IntN(4)], N: n, Payload: 64}
		req = request{path: "/v1/sweep", kind: freshReq}
		fs := []uint64{r.Uint64(), r.Uint64()}
		for _, sd := range fs {
			req.fresh = append(req.fresh, freshCell{spec: sp, seed: sd})
		}
		body = gridBody{Scenarios: []repro.ScenarioSpec{sp}, Seeds: fs}
	default:
		req = request{path: "/v1/aggregate", win: w, kind: aggregateReq}
		body = gridBody{specs, seeds, aggregateMetrics}
	}
	var err error
	req.body, err = json.Marshal(body)
	return req, err
}

// do sends request i and checks its response.
func (s *serveRun) do(ctx context.Context, client *http.Client, url string, i int64, ct *clientTally, lt *layerTally) {
	ct.attempted++
	req, err := s.request(i)
	if err != nil {
		ct.fail(err)
		return
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+req.path, bytes.NewReader(req.body))
	if err != nil {
		ct.fail(err)
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		ct.fail(err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	_ = resp.Body.Close() // fully read; a close error cannot change the outcome
	if err != nil {
		ct.fail(err)
		return
	}
	ct.latencies = append(ct.latencies, lat)
	if resp.StatusCode != http.StatusOK {
		ct.fail(fmt.Errorf("request %d %s: status %d: %s", i, req.path, resp.StatusCode, bytes.TrimSpace(body)))
		return
	}
	var cells int
	switch req.kind {
	case aggregateReq:
		cells = req.win.k * req.win.m
		err = s.checkAggregate(req.win, body)
	default:
		cells, err = s.checkSweep(req, body, lt)
	}
	ct.cells += int64(cells)
	if err != nil {
		ct.fail(fmt.Errorf("request %d %s: %w", i, req.path, err))
		return
	}
	if req.kind != aggregateReq {
		ct.respBytes += int64(len(body))
		ct.respCells += int64(cells)
	}
}

// cellLine is one NDJSON line of a /v1/sweep response.
type cellLine struct {
	Scenario int             `json:"scenario"`
	Trial    int             `json:"trial"`
	Seed     uint64          `json:"seed"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// checkSweep checks a sweep response: warm cells must be byte-identical
// to the direct runs of set-up, fresh cells must pass checkCell.
func (s *serveRun) checkSweep(req request, body []byte, lt *layerTally) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	nJ := len(s.warm.seeds)
	want := req.win.k * req.win.m
	if req.kind == freshReq {
		want = len(req.fresh)
	}
	n := 0
	for ; sc.Scan(); n++ {
		if n >= want {
			return n, fmt.Errorf("more than %d cells", want)
		}
		var cl cellLine
		if err := json.Unmarshal(sc.Bytes(), &cl); err != nil {
			return n, err
		}
		if cl.Error != "" {
			return n, fmt.Errorf("cell %d: %s", n, cl.Error)
		}
		if req.kind == readReq {
			a, b := n/req.win.m, n%req.win.m
			si, sj := (req.win.s0+a)%len(s.warm.specs), (req.win.j0+b)%nJ
			if cl.Scenario != a || cl.Trial != b || cl.Seed != s.warm.seeds[sj] ||
				!bytes.Equal(cl.Result, s.warm.encoded[s.warm.cell(si, sj)]) {
				return n, fmt.Errorf("cell %d differs from the direct run of %s seed %d", n, s.warm.scenarios[si], s.warm.seeds[sj])
			}
			continue
		}
		fc := req.fresh[n]
		var res repro.Result
		if err := json.Unmarshal(cl.Result, &res); err != nil {
			return n, err
		}
		if cl.Seed != fc.seed {
			return n, fmt.Errorf("cell %d has seed %d, want %d", n, cl.Seed, fc.seed)
		}
		if err := checkCell(repro.Cell{Result: res}); err != nil {
			return n, fmt.Errorf("fresh cell seed %d: %w", fc.seed, err)
		}
		if lt != nil {
			scen, err := fc.spec.Scenario()
			if err != nil {
				return n, err
			}
			lt.observeResult(scen, res)
		}
		s.mu.Lock()
		if len(s.fresh) < keptFresh {
			fc.raw = append([]byte(nil), cl.Result...)
			s.fresh = append(s.fresh, fc)
		}
		s.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n != want {
		return n, fmt.Errorf("%d cells, want %d", n, want)
	}
	return n, nil
}

// checkAggregate compares an aggregate response with the report the warm
// set's direct results aggregate to.
func (s *serveRun) checkAggregate(w window, body []byte) error {
	s.mu.Lock()
	want, ok := s.aggBody[w]
	s.mu.Unlock()
	if !ok {
		var err error
		if want, err = s.expectedAggregate(w); err != nil {
			return err
		}
		s.mu.Lock()
		s.aggBody[w] = want
		s.mu.Unlock()
	}
	if !bytes.Equal(body, want) {
		return errors.New("report differs from the aggregate of the direct runs")
	}
	return nil
}

func (s *serveRun) expectedAggregate(w window) ([]byte, error) {
	metrics := make([]repro.Metric, len(aggregateMetrics))
	for i, name := range aggregateMetrics {
		m, ok := repro.MetricByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown metric %q", name)
		}
		metrics[i] = m
	}
	nS, nJ := len(s.warm.specs), len(s.warm.seeds)
	agg := repro.NewAggregator(metrics...)
	for a := 0; a < w.k; a++ {
		for b := 0; b < w.m; b++ {
			si, sj := (w.s0+a)%nS, (w.j0+b)%nJ
			c := repro.Cell{ScenarioIndex: a, SeedIndex: b, Seed: s.warm.seeds[sj], Result: s.warm.results[s.warm.cell(si, sj)]}
			if err := agg.Add(c); err != nil {
				return nil, err
			}
		}
	}
	rep := agg.Finish()
	for i := range rep.Rows {
		row := &rep.Rows[i]
		row.Scenario = s.warm.scenarios[(w.s0+row.Group)%nS]
		row.Label = row.Scenario.String()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.EncodeReport(rep)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// statsBody is the part of /v1/stats the traced pass reads.
type statsBody struct {
	Endpoints []struct {
		Name  string  `json:"name"`
		P50MS float64 `json:"p50_ms"`
		P99MS float64 `json:"p99_ms"`
	} `json:"endpoints"`
	Metrics []struct {
		Name   string      `json:"name"`
		Labels []obs.Label `json:"labels"`
		Value  float64     `json:"value"`
	} `json:"metrics"`
}

// readStats fills the serving-layer and kernel fields of lt from the
// server's /v1/stats and the store's counters since before.
func (s *serveRun) readStats(ctx context.Context, client *http.Client, url string, before repro.StoreStats, lt *layerTally) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(hr)
	if err != nil {
		return err
	}
	// Only read from: a close error cannot change what was decoded.
	defer func() { _ = resp.Body.Close() }()
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /v1/stats: %w", err)
	}
	for _, e := range st.Endpoints {
		if e.Name == "sweep" {
			lt.handlerP50, lt.handlerP99 = e.P50MS, e.P99MS
		}
	}
	counters := map[string]*uint64{
		"contend_kernel_events_scheduled_total":   &lt.scheduled,
		"contend_kernel_events_fired_total":       &lt.fired,
		"contend_kernel_events_canceled_total":    &lt.canceled,
		"contend_kernel_events_reused_total":      &lt.reused,
		"contend_kernel_idle_slots_skipped_total": &lt.idleElided,
		"contend_pool_tx_total":                   &lt.txTotal,
		"contend_pool_tx_reuses_total":            &lt.txReuses,
	}
	for _, m := range st.Metrics {
		if p, ok := counters[m.Name]; ok {
			*p = uint64(m.Value)
		}
		if m.Name == "contend_kernel_max_queue_len" {
			lt.maxQueue = int(m.Value)
		}
	}
	after := s.store.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	lt.hitFrac = ratio(float64(hits), float64(hits+misses))
	lt.recordKB = ratio(float64(after.Bytes)/1024, float64(after.Records+after.Stale))
	return nil
}

// spanTally is the serving layer's span sink in the traced pass: each
// cell span carries the engine's stage durations as attributes.
type spanTally struct{ lt *layerTally }

func (st spanTally) EmitSpan(sp obs.Span) {
	var simulated bool
	var model string
	var sim, put, admit time.Duration
	for _, a := range sp.Attrs {
		switch a.Key {
		case "simulated":
			simulated, _ = a.Value.(bool)
		case "scenario":
			str, _ := a.Value.(string)
			model, _, _ = strings.Cut(str, "/")
		case "sim_ns":
			v, _ := a.Value.(int64)
			sim = time.Duration(v)
		case "put_ns":
			v, _ := a.Value.(int64)
			put = time.Duration(v)
		case "admit_wait_ns":
			v, _ := a.Value.(int64)
			admit = time.Duration(v)
		}
	}
	lt := st.lt
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.busy += sp.Duration
	if !simulated {
		lt.replay = append(lt.replay, sp.Duration)
		return
	}
	lt.sim = append(lt.sim, sim)
	lt.admit = append(lt.admit, admit)
	if put > 0 {
		lt.put = append(lt.put, put)
	}
	if model == "wifi" {
		lt.kernelCells++
		lt.kernelSim += sim
	} else {
		lt.abstractSim += sim
	}
}
