package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capi"
	"capi/internal/ctl"
	"capi/internal/experiments"
	"capi/middleware"
)

// Serving shape: two closed-loop client connections (callers that each wait
// for their reply), two middleware workers. selectEvery is the control-plane
// schedule on connection 0: one POST /v1/select in place of an app request
// every selectEvery operations, and one GET /metrics half-way between.
const (
	httpConns     = 2
	selectEvery   = 200
	minRequests   = 1000 // so p99 has 10 samples beyond it
	groupHeader   = "X-Bench-Group"
	parentHeader  = "X-Bench-Span"
	traceRetained = 1 << 18 // extrae events kept per rank; older ones wrap
)

// server is the webservice program served the way capi-serve serves it:
// middleware.Service under /app/, the ctl control plane under /.
type server struct {
	sess *capi.Session
	inst *capi.Instance
	cp   *ctl.Server
	srv  *http.Server
	base string
	done chan error
	// tr, once set, makes the handler wrapper record a span per request.
	tr atomic.Pointer[tracer]
}

func startServer() (*server, error) {
	p := capi.Webservice()
	sess, err := capi.NewSession(p, capi.SessionOptions{OptLevel: 2})
	if err != nil {
		return nil, err
	}
	inst, err := sess.Start(nil, capi.RunOptions{
		PatchAll: true, Backends: []string{"extrae"}, Async: true, Ranks: 1, HTTPWorkers: httpConns,
		Trace: &capi.TraceOptions{Wrap: true, MaxEvents: traceRetained},
	})
	if err != nil {
		return nil, err
	}
	svc, err := middleware.New(inst, p, capi.WebserviceEndpoints(), middleware.Options{Workers: httpConns})
	if err != nil {
		inst.Close()
		return nil, err
	}
	s := &server{sess: sess, inst: inst, cp: ctl.New(sess, inst, "webservice"), done: make(chan error, 1)}
	root := http.NewServeMux()
	root.Handle("/app/", http.StripPrefix("/app", svc))
	root.Handle("/", s.cp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.timed(root), ReadHeaderTimeout: 10 * time.Second}
	s.srv.RegisterOnShutdown(s.cp.Shutdown)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// timed wraps the root handler: with a tracer set, each request's server
// side becomes a span, the child of the client span named in its headers.
func (s *server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		end := time.Now()
		group, _ := strconv.Atoi(req.Header.Get(groupHeader))
		parent, _ := strconv.Atoi(req.Header.Get(parentHeader))
		tr.record("server:"+opKind(req), group, parent, start, end)
	})
}

// opKind names a request by the layer that serves it.
func opKind(req *http.Request) string {
	switch {
	case strings.HasPrefix(req.URL.Path, "/app/"):
		return "app"
	case req.URL.Path == "/v1/select":
		return "select"
	case req.URL.Path == "/metrics":
		return "metrics"
	}
	return "other"
}

// close stops the server, waits for it, and tears the instance down.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves Serve to return on its own
	<-s.done
	s.inst.Close()
}

// serveLoad is the accumulated outcome of the client loops.
type serveLoad struct {
	mu        sync.Mutex
	appMs     samples
	adjustMs  samples
	drainMs   samples
	metricsB  samples
	depthMax  int64
	delta     samples
	sleds     samples
	synthetic int64
}

// selectPlan is the control plane's alternating target: builtin kernels,
// then a seeded include list, each with the active set it must produce.
type selectPlan struct {
	kernels map[string]bool
	names   []string // every resolvable function, for include lists
}

func newSelectPlan(s *server) (*selectPlan, error) {
	src, err := experiments.SpecSource("kernels")
	if err != nil {
		return nil, err
	}
	sel, err := s.sess.Select(src)
	if err != nil {
		return nil, err
	}
	unknown := map[string]bool{}
	for _, n := range s.inst.UnknownFunctionNames(sel.IC.Include) {
		unknown[n] = true
	}
	pl := &selectPlan{kernels: map[string]bool{}}
	for _, n := range sel.IC.Include {
		if !unknown[n] {
			pl.kernels[n] = true
		}
	}
	seen := map[string]bool{}
	for _, n := range s.inst.ActiveFunctionNames() {
		if !seen[n] {
			seen[n] = true
			pl.names = append(pl.names, n)
		}
	}
	sort.Strings(pl.names)
	return pl, nil
}

// next returns the k-th select body and the active set it must leave.
func (pl *selectPlan) next(k int, rng *rand.Rand) ([]byte, map[string]bool) {
	if k%2 == 0 {
		return []byte(`{"builtin":"kernels"}`), pl.kernels
	}
	n := 3 + rng.Intn(10)
	want := map[string]bool{}
	for _, idx := range rng.Perm(len(pl.names))[:n] {
		want[pl.names[idx]] = true
	}
	include := make([]string, 0, n)
	for name := range want {
		include = append(include, name)
	}
	sort.Strings(include)
	body, _ := json.Marshal(ctl.SelectRequest{Include: include}) // a string slice always marshals
	return body, want
}

// request sends one request as a client span and returns the body.
func (r *run) request(c *http.Client, method, url string, body []byte, name string) (int, []byte, time.Duration, error) {
	group := r.tr.nextGroup()
	sp := r.tr.begin("client:"+name, group, 0)
	defer r.tr.end(sp)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != 0 {
		req.Header.Set(groupHeader, strconv.Itoa(group))
		req.Header.Set(parentHeader, strconv.Itoa(sp))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// appRequest sends one seeded app request and checks the reply names it.
func (r *run) appRequest(s *server, c *http.Client, route string, rng *rand.Rand, load *serveLoad) {
	method, path, _ := strings.Cut(route, " ")
	path = strings.ReplaceAll(path, "{id}", strconv.Itoa(rng.Intn(100000)))
	var body []byte
	if method == http.MethodPost {
		body = []byte(`{"item":` + strconv.Itoa(rng.Intn(1000)) + `}`)
	}
	code, data, took, err := r.request(c, method, s.base+"/app"+path, body, "app")
	if err == nil {
		var reply struct {
			Endpoint string `json:"endpoint"`
		}
		switch {
		case code != http.StatusOK:
			err = fmt.Errorf("%s: status %d", route, code)
		case json.Unmarshal(data, &reply) != nil || reply.Endpoint != route:
			err = fmt.Errorf("%s: reply %q names another route", route, strings.TrimSpace(string(data)))
		}
	}
	r.led.op(err)
	if err == nil {
		load.mu.Lock()
		load.appMs = append(load.appMs, float64(took.Nanoseconds())/1e6)
		load.mu.Unlock()
	}
}

// selectRequest posts one selection and checks the live active set.
func (r *run) selectRequest(s *server, c *http.Client, body []byte, want map[string]bool, load *serveLoad) {
	code, data, took, err := r.request(c, http.MethodPost, s.base+"/v1/select", body, "select")
	var resp ctl.SelectResponse
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("select %s: status %d: %s", body, code, strings.TrimSpace(string(data)))
	}
	if err == nil {
		if err = json.Unmarshal(data, &resp); err != nil {
			err = fmt.Errorf("select reply: %w", err)
		}
	}
	if err == nil {
		err = sameSet(s.inst.ActiveFunctionNames(), want)
	}
	r.led.op(err)
	if err != nil {
		return
	}
	var drain time.Duration
	if r.tr != nil {
		sp := r.tr.begin("capi.Instance.DrainPipeline", r.tr.nextGroup(), 0)
		start := time.Now()
		s.inst.DrainPipeline()
		drain = time.Since(start)
		r.tr.end(sp)
	}
	rep := resp.Report
	load.mu.Lock()
	defer load.mu.Unlock()
	load.adjustMs = append(load.adjustMs, float64(took.Nanoseconds())/1e6)
	if r.tr != nil {
		load.drainMs = append(load.drainMs, float64(drain.Nanoseconds())/1e6)
	}
	if delta := rep.Patched + rep.Unpatched; delta > 0 {
		load.delta = append(load.delta, float64(delta))
		load.sleds = append(load.sleds, float64(rep.Batch.PatchedSleds+rep.Batch.UnpatchedSleds))
	}
	load.synthetic += int64(rep.SyntheticExits)
}

// sameSet checks the live active function names against the requested set.
func sameSet(active []string, want map[string]bool) error {
	got := map[string]bool{}
	for _, n := range active {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			return fmt.Errorf("requested %s is not active", n)
		}
	}
	for n := range got {
		if !want[n] {
			return fmt.Errorf("%s is active but was not requested", n)
		}
	}
	return nil
}

// scrape reads /metrics and checks it carries the reconfigure counter.
func (r *run) scrape(s *server, c *http.Client, load *serveLoad) {
	code, data, _, err := r.request(c, http.MethodGet, s.base+"/metrics", nil, "metrics")
	if err == nil && (code != http.StatusOK || !bytes.Contains(data, []byte("capi_reconfigs_total"))) {
		err = fmt.Errorf("metrics: status %d without capi_reconfigs_total", code)
	}
	r.led.op(err)
	if err == nil {
		load.mu.Lock()
		load.metricsB = append(load.metricsB, float64(len(data)))
		load.mu.Unlock()
	}
}

// serve runs both client connections for d (and until the minimum numbers
// of adjustments and requests are reached) and returns the serving time.
func (r *run) serve(s *server, d time.Duration, rngs []*rand.Rand, plan *selectPlan, load *serveLoad) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
			rng := rngs[c]
			for i := 0; ; i++ {
				if c == 0 {
					load.mu.Lock()
					more := r.measuring(start, d, len(load.adjustMs), minOps) ||
						r.measuring(start, d, len(load.appMs), minRequests)
					load.mu.Unlock()
					if !more {
						stop.Store(true)
					}
				}
				if stop.Load() {
					return
				}
				switch {
				case c == 0 && i%selectEvery == selectEvery/2:
					body, want := plan.next(i/selectEvery, rng)
					r.selectRequest(s, client, body, want, load)
				case c == 0 && i%selectEvery == 0 && i > 0:
					r.scrape(s, client, load)
				default:
					r.appRequest(s, client, pickRoute(rng), rng, load)
				}
				if c == 0 && r.tr != nil {
					if depth := s.inst.PipelineDepth(); depth > load.depthMax {
						load.depthMax = depth
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// pickRoute draws a route with the webservice's traffic weights.
func pickRoute(rng *rand.Rand) string {
	eps := capi.WebserviceEndpoints()
	total := 0
	for _, ep := range eps {
		total += ep.Weight
	}
	n := rng.Intn(total)
	for _, ep := range eps {
		if n -= ep.Weight; n < 0 {
			return ep.Route
		}
	}
	return eps[len(eps)-1].Route
}

// traceTotals sums the extrae trace's per-rank accounting.
type traceTotals struct{ enters, exits, recorded int64 }

func readTrace(inst *capi.Instance) (traceTotals, *capi.TraceReport) {
	tr := inst.TraceReport()
	var t traceTotals
	if tr == nil {
		return t, nil
	}
	for _, rk := range tr.Ranks {
		t.enters += rk.Enters
		t.exits += rk.Exits
	}
	t.recorded = tr.Recorded
	return t, tr
}

// checkServed drains the pipeline and checks the served traffic's
// accounting. The serving ranks dispatch from the middleware, which the
// instance counts no enters for without a sampling table, so the identity
// is checked through the backend: every delivered enter is closed by an
// exit, except exits dropped in flight when a select deselected a function
// mid-request (extrae closes no dangling enters). Pairs the full ring
// rejected are accounted drops, not errors; they count as lost events.
func (r *run) checkServed(s *server, before traceTotals) (traceTotals, error) {
	s.inst.DrainPipeline()
	if depth := s.inst.PipelineDepth(); depth != 0 {
		return traceTotals{}, fmt.Errorf("pipeline holds %d events after a drain", depth)
	}
	t, tr := readTrace(s.inst)
	if tr == nil {
		return t, fmt.Errorf("no extrae report")
	}
	st := s.inst.Status()
	lost := st.DroppedAsync + st.DroppedPanicked
	r.led.events(t.enters-before.enters+lost, lost)
	open := t.enters - t.exits
	fmt.Fprintf(os.Stderr, "capibench: extrae holds %d enters without an exit; %d events dropped in flight\n", open, st.DroppedInFlight)
	if open < 0 || open > st.DroppedInFlight {
		return t, fmt.Errorf("extrae: %d enters, %d exits, %d exits dropped in flight", t.enters, t.exits, st.DroppedInFlight)
	}
	if tr.Wrapped == 0 {
		for _, fc := range tr.ByFunc {
			if fc.Exits > fc.Enters {
				return t, fmt.Errorf("extrae: %s has %d exits for %d enters", fc.Name, fc.Exits, fc.Enters)
			}
		}
	}
	return t, nil
}

// httpServe is the serving workload: the webservice behind middleware and
// the control plane on loopback, with async extrae, under a closed loop of
// two connections; one also re-selects and scrapes on a fixed schedule.
func httpServe(r *run) error {
	setup, s, err := repeatSetup(startServer, (*server).close)
	if err != nil {
		return err
	}
	defer s.close()
	plan, err := newSelectPlan(s)
	if err != nil {
		return err
	}
	rngs := make([]*rand.Rand, httpConns)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.rng.Int63()))
	}
	load := &serveLoad{}
	before, _ := readTrace(s.inst)
	r.serve(s, warmup, rngs, plan, &serveLoad{})
	s.inst.DrainPipeline()
	warm, _ := readTrace(s.inst)
	if !r.traced {
		r.set("setup_s", setup, "s")
		took := r.serve(s, r.measureAll(), rngs, plan, load)
		after, err := r.checkServed(s, before)
		r.led.op(err)
		r.set("op_ms_p50", load.appMs.median(), "ms")
		r.setTail("op_ms_p90", load.appMs, 90, "ms")
		r.set("http_rps", float64(len(load.appMs))/took.Seconds(), "1/s")
		r.setTail("http_ms_p99", load.appMs, 99, "ms")
		r.set("adjust_ms_p50", load.adjustMs.median(), "ms")
		r.setTail("adjust_ms_p90", load.adjustMs, 90, "ms")
		r.set("events_per_s", float64(after.recorded-warm.recorded)/took.Seconds(), "1/s")
		return nil
	}
	r.serve(s, r.measureHalf(), rngs, plan, load)
	plainP50 := load.appMs.median()
	mid, err := r.checkServed(s, before)
	r.led.op(err)
	load = &serveLoad{}
	r.tr = newTracer()
	s.tr.Store(r.tr)
	r.serve(s, r.measureHalf(), rngs, plan, load)
	after, err := r.checkServed(s, mid)
	r.led.op(err)
	r.set("tracing.overhead_ratio", load.appMs.median()/plainP50-1, "ratio")

	spans := r.tr.snapshot()
	serverApp := durations(spans, "server:app")
	us := func(ms samples) samples {
		out := make(samples, len(ms))
		for k, v := range ms {
			out[k] = v * 1000
		}
		return out
	}
	r.set("middleware.server_us_p50", us(serverApp).median(), "us")
	r.setTail("middleware.server_us_p99", us(serverApp), 99, "us")
	r.set("nethttp.overhead_us_p50", us(clientOverServer(spans, "client:app")).median(), "us")
	r.set("middleware.pairs_per_request", float64(after.enters-mid.enters)/float64(len(load.appMs)), "count")
	r.set("pipeline.depth_max", float64(load.depthMax), "count")
	r.set("pipeline.dropped_pairs", float64(s.inst.DroppedAsync()), "count")
	r.set("pipeline.drain_ms", load.drainMs.median(), "ms")
	r.set("ctl.select_ms", durations(spans, "server:select").median(), "ms")
	r.set("ctl.metrics_ms", durations(spans, "server:metrics").median(), "ms")
	r.set("ctl.metrics_bytes", load.metricsB.median(), "bytes")
	r.set("dyncapi.reconfigure_delta_funcs", load.delta.median(), "count")
	r.set("xray.repatched_sleds", load.sleds.median(), "count")
	r.set("dyncapi.synthetic_exits", float64(load.synthetic), "count")
	if err := r.setupLayers(capi.Webservice, 2, ""); err != nil {
		return err
	}
	_, err = r.dispatchLadder()
	return err
}

// clientOverServer returns, per request, the client span's duration minus
// its server child's: the time net/http and loopback add.
func clientOverServer(spans []span, client string) samples {
	server := map[int]int64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "server:") {
			server[s.Parent] = s.dur()
		}
	}
	var out samples
	for _, s := range spans {
		if d, ok := server[s.ID]; ok && s.Name == client {
			out = append(out, float64(s.dur()-d)/1e6)
		}
	}
	return out
}
