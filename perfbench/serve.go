package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"revive"
	"revive/internal/serve"
)

// daemon is one serve.Server behind a loopback HTTP listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Options{StateDir: dir, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener, waits for the HTTP server to return, then
// drains the daemon.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// serveRequests are the eight requests of a cold pass: each error-free app
// on an 8-node Quick machine, with the default ReVive and as a baseline.
func serveRequests() ([]serve.Request, [][]byte, error) {
	var reqs []serve.Request
	var bodies [][]byte
	for _, app := range errorfreeApps {
		for _, baseline := range []bool{false, true} {
			req := serve.Request{Kind: "sim", Apps: []string{app}, Nodes: 8, Quick: true, Baseline: baseline}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, nil, err
			}
			reqs = append(reqs, req)
			bodies = append(bodies, b)
		}
	}
	return reqs, bodies, nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

type response struct {
	status  int
	body    []byte
	latency time.Duration
}

func post(c *http.Client, url string, body []byte) (response, error) {
	start := time.Now()
	resp, err := c.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{resp.StatusCode, data, time.Since(start)}, nil
}

// segments is how many daemon lives an untraced run is split into; each
// takes a cold pass and then repeats.
const segments = 3

// coldPass asks a daemon that has not seen them for every request, in
// order. The two clients send each request together and wait for both
// answers before the next: the second joins the first's job, so a cold
// answer's latency is the job's own, not the wait behind another job. It
// returns the first client's answers by request index and the pass's wall
// time. An answer that is not 200, differs from its twin, or differs from
// ref (the first daemon's answers, when given) is a failed check.
func coldPass(r *report, d *daemon, bodies, ref [][]byte, order []int) ([]response, time.Duration, error) {
	clients := [2]*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	cold := make([]response, len(bodies))
	start := time.Now()
	for _, i := range order {
		var resps [2]response
		var errs [2]error
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				resps[c], errs[c] = post(clients[c], d.url, bodies[i])
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs[:]...); err != nil {
			return nil, 0, fmt.Errorf("cold request %d: %w", i, err)
		}
		for _, resp := range resps {
			r.check(resp.status == http.StatusOK && bytes.Equal(resp.body, resps[0].body) &&
				(ref == nil || bytes.Equal(resp.body, ref[i])),
				"cold request %d: HTTP %d, %d bytes", i, resp.status, len(resp.body))
		}
		cold[i] = resps[0]
	}
	return cold, time.Since(start), nil
}

// hitWindow is how many consecutive repeats of one client make a latency
// window. Each client sends at least one window.
const hitWindow = 1000

// window is the repeat latency percentiles of one hitWindow, in ms.
type window struct{ p50, p99 float64 }

// repeatPhase sends seeded random picks of the requests from two
// closed-loop clients until the deadline, and returns the latency percentiles of each client's successive
// windows. Every answer must be byte-identical to ref, the request's cold
// answer.
func repeatPhase(r *report, d *daemon, bodies, ref [][]byte, seed uint64, until time.Time) ([]window, error) {
	const clients = 2
	type tally struct {
		hit          []float64
		failed, sent int
		problem      string
		err          error
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(int64(seed)*clients + int64(c) + 1))
			t := &tallies[c]
			for t.sent < hitWindow || time.Now().Before(until) {
				i := rng.Intn(len(bodies))
				resp, err := post(hc, d.url, bodies[i])
				if err != nil {
					t.err = err
					return
				}
				t.sent++
				t.hit = append(t.hit, ms(resp.latency))
				if resp.status != http.StatusOK || !bytes.Equal(resp.body, ref[i]) {
					t.failed++
					t.problem = fmt.Sprintf("repeat of request %d: HTTP %d, %d bytes", i, resp.status, len(resp.body))
				}
			}
		}(c)
	}
	wg.Wait()
	var windows []window
	for _, t := range tallies {
		if t.err != nil {
			return nil, fmt.Errorf("repeat phase: %w", t.err)
		}
		for i := 0; i+hitWindow <= len(t.hit); i += hitWindow {
			w := t.hit[i : i+hitWindow]
			windows = append(windows, window{quantile(w, 0.5), quantile(w, 0.99)})
		}
		r.tally(t.sent, t.failed, "%d of %d repeats failed, last: %s", t.failed, t.sent, t.problem)
	}
	if len(windows) == 0 {
		return nil, errors.New("repeat phase: no complete latency window")
	}
	return windows, nil
}

// row is the part of a sim response the benchmark reads.
type row struct {
	App   string       `json:"app"`
	Stats revive.Stats `json:"stats"`
}

func parseRow(body []byte) (row, error) {
	var rows []row
	if err := json.Unmarshal(body, &rows); err != nil {
		return row{}, err
	}
	if len(rows) != 1 {
		return row{}, fmt.Errorf("want one result row, got %d", len(rows))
	}
	return rows[0], nil
}

// segment is one fresh daemon's traffic: a cold pass, then repeats.
type segment struct {
	coldWall time.Duration
	cold     []response
	hit      []window
}

// runSegment sends the cold pass in a seeded order and then repeats until
// the segment's deadline. ref, when given, holds the answers every cold
// and repeated request must reproduce; the first segment sets it.
func runSegment(r *report, d *daemon, bodies [][]byte, ref *[][]byte, rng *rand.Rand, until time.Time) (segment, error) {
	var sg segment
	var err error
	sg.cold, sg.coldWall, err = coldPass(r, d, bodies, *ref, rng.Perm(len(bodies)))
	if err != nil {
		return sg, err
	}
	if *ref == nil {
		for _, resp := range sg.cold {
			*ref = append(*ref, resp.body)
		}
	}
	sg.hit, err = repeatPhase(r, d, bodies, *ref, rng.Uint64(), until)
	return sg, err
}

func runServe(e *env, r *report) error {
	reqs, bodies, err := serveRequests()
	if err != nil {
		return err
	}
	fresh := func() (*daemon, error) {
		dir, err := e.scratchDir("state-")
		if err != nil {
			return nil, err
		}
		return startDaemon(dir)
	}
	// Set-up is a fresh state directory and a daemon start, journal open
	// included, through to the first ready answer. The last daemon started
	// serves the first segment.
	var daemons []*daemon
	setup, err := timeSetup(25, func() error {
		d, err := fresh()
		if err == nil {
			daemons = append(daemons, d)
		}
		return err
	})
	for i, d := range daemons {
		if i < len(daemons)-1 {
			err = errors.Join(err, d.stop())
		}
	}
	if err != nil {
		if len(daemons) > 0 {
			daemons[len(daemons)-1].stop()
		}
		return err
	}
	d := daemons[len(daemons)-1]

	rng := rand.New(rand.NewSource(int64(e.seed)))
	var ref [][]byte
	n := segments
	if e.traced {
		n = 1 // the traced segment follows on its own daemon
	}
	start := time.Now()
	var segs []segment
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := d.stop(); err != nil {
				return err
			}
			if d, err = fresh(); err != nil {
				return err
			}
		}
		until := start.Add(e.budget * time.Duration(i+1) / segments)
		if e.traced {
			until = start.Add(e.budget / 2)
		}
		sg, err := runSegment(r, d, bodies, &ref, rng, until)
		if err != nil {
			d.stop()
			return err
		}
		segs = append(segs, sg)
	}
	if err := d.stop(); err != nil {
		return err
	}
	// ReVive and baseline results of each app sit at even and odd indexes.
	rows := make([]row, len(ref))
	for i, body := range ref {
		if rows[i], err = parseRow(body); err != nil {
			return fmt.Errorf("cold request %d: %w", i, err)
		}
	}
	if !e.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		setCommon(r, setup, rss)
		var sum float64
		for i := 0; i < len(rows); i += 2 {
			rev, base := rows[i].Stats.ExecTime, rows[i+1].Stats.ExecTime
			sum += float64(rev-base) / float64(base)
		}
		r.set("sim_overhead_pct", 100*sum/float64(len(rows)/2))
		r.set("sim_recovery_us", notModelled)
		setSegmentMetrics(r, segs)
		return nil
	}

	// A second daemon life on the same state directory: journal replay and
	// cache reopen.
	restart := time.Now()
	again, err := serve.New(serve.Options{StateDir: d.dir, Parallelism: 1})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.set("serve.restart_ms", ms(time.Since(restart)))
	if err := again.Shutdown(context.Background()); err != nil {
		return err
	}

	if d, err = fresh(); err != nil {
		return err
	}
	tr, err := startTrace(e.profilePath())
	if err != nil {
		d.stop()
		return err
	}
	traced, err := runSegment(r, d, bodies, &ref, rng, time.Now().Add(e.budget/2))
	if err == nil {
		var fsync float64
		if fsync, err = scrapeFsyncP50(d.url); err == nil {
			r.set("serve.fsync_p50_us", fsync)
		}
	}
	if err != nil {
		tr.close()
		d.stop()
		return err
	}
	if err := tr.stop(r); err != nil {
		d.stop()
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	plainWall := segs[0].coldWall.Seconds()
	r.set("trace_overhead_pct", 100*(traced.coldWall.Seconds()/plainWall-1))

	var counts simCounts
	var instr uint64
	for i := range rows {
		instr += rows[i].Stats.Instructions
		if !reqs[i].Baseline {
			counts.add(rows[i].App, &rows[i].Stats)
		}
	}
	r.set("proc.sim_mips", float64(instr)/plainWall/1e6)
	counts.report(r)
	return probeCalls(e, r)
}

// setSegmentMetrics records the serve workload's host-side latencies. The
// host's speed swings by up to a quarter on a ten-second scale, so each
// quantity is taken at the run's best: wall_s is the fastest cold pass,
// cold_p50_ms the median request's fastest cold answer over the segments,
// and hit_p50_ms and hit_p99_ms the fastest tenth of the repeat windows'
// percentiles.
func setSegmentMetrics(r *report, segs []segment) {
	wall := segs[0].coldWall
	cold := make([]float64, len(segs[0].cold))
	for i := range cold {
		cold[i] = math.Inf(1)
	}
	var p50s, p99s []float64
	for _, sg := range segs {
		wall = min(wall, sg.coldWall)
		for i, resp := range sg.cold {
			cold[i] = min(cold[i], ms(resp.latency))
		}
		for _, w := range sg.hit {
			p50s = append(p50s, w.p50)
			p99s = append(p99s, w.p99)
		}
	}
	r.set("wall_s", wall.Seconds())
	r.set("cold_p50_ms", quantile(cold, 0.5))
	r.set("hit_p50_ms", quantile(p50s, 0.1))
	r.set("hit_p99_ms", quantile(p99s, 0.1))
}

// scrapeFsyncP50 reads the daemon's WAL fsync histogram from /metrics and
// returns its median in microseconds, interpolated within the bucket that
// holds it.
func scrapeFsyncP50(url string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	const prefix = `revive_wal_fsync_seconds_bucket{le="`
	var bounds, cum []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"}`)
		if q < 0 {
			return 0, fmt.Errorf("malformed metrics line %q", line)
		}
		fields := strings.Fields(rest[q+2:])
		if len(fields) != 1 {
			return 0, fmt.Errorf("malformed metrics line %q", line)
		}
		bound := math.Inf(1)
		if rest[:q] != "+Inf" {
			if bound, err = strconv.ParseFloat(rest[:q], 64); err != nil {
				return 0, err
			}
		}
		n, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		bounds = append(bounds, bound)
		cum = append(cum, n)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0, errors.New("no WAL fsync observations on /metrics")
	}
	rank := cum[len(cum)-1] / 2
	lower, below := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[i], 1) {
				return lower * 1e6, nil
			}
			return (lower + (bounds[i]-lower)*(rank-below)/(c-below)) * 1e6, nil
		}
		lower, below = bounds[i], c
	}
	return 0, errors.New("unreachable histogram rank")
}

// probeServe measures the serving layer's calls on a scratch directory: a
// durable journal append, a result-cache read and request
// canonicalization.
func probeServe(e *env, r *report) error {
	dir, err := e.scratchDir("journal-")
	if err != nil {
		return err
	}
	j, _, err := serve.OpenJournal(dir, nil, nil)
	if err != nil {
		return err
	}
	var appends []float64
	start := time.Now()
	for len(appends) < 20 || time.Since(start) < probeBudget {
		t := time.Now()
		if err := j.Append(&serve.Record{Op: "accepted", Job: "probe", Req: json.RawMessage(`{"kind":"sim"}`)}); err != nil {
			j.Close()
			return err
		}
		appends = append(appends, float64(time.Since(t).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	r.set("serve.journal_append_us", quantile(appends, 0.5))

	c, err := serve.OpenCache(dir+"/cache", nil)
	if err != nil {
		return err
	}
	const id = "0123456789abcdef"
	if err := c.Put(id, bytes.Repeat([]byte("x"), 4096)); err != nil {
		return err
	}
	var getErr error
	get := measure(256, func(int) {
		if _, ok := c.Get(id); !ok {
			getErr = errors.New("cache probe: entry vanished")
		}
	})
	if getErr != nil {
		return getErr
	}
	r.set("serve.cache_get_us", get.ns/1e3)

	req := serve.Request{Kind: "sim", Apps: []string{"fft"}, Nodes: 8, Quick: true}
	var canonErr error
	canon := measure(1024, func(int) {
		if _, _, err := serve.Canonicalize(req); err != nil {
			canonErr = err
		}
	})
	if canonErr != nil {
		return canonErr
	}
	r.set("serve.canonicalize_us", canon.ns/1e3)
	return nil
}
