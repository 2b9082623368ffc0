package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/pipeline"
	"polygraph/internal/ua"
)

// workload is one named traffic mix. BENCHMARK.json records why each
// was chosen.
type workload struct {
	name string
	run  func(ctx context.Context, o *options, rep *report) error
	// rate is the fixed offered rate of an open-loop HTTP workload.
	rate  float64
	drift bool
	// auditSample is polygraphd's -audit-sample (0 = ledger off).
	auditSample int
}

var workloads = []workload{
	{name: "login-http", run: runHTTP, rate: 4000, auditSample: 10},
	{name: "replay-tcp", run: runTCP},
	{name: "retrain", run: runRetrain},
	{name: "drift-http", run: runHTTP, rate: 3000, drift: true, auditSample: 10},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runHTTP drives login-http or drift-http: an open loop of independent
// users at the workload's fixed rate, then (untraced) the max_rps
// ladder, or (traced) the same fixed rate again through the
// handler-timing listener.
func runHTTP(ctx context.Context, o *options, rep *report) error {
	w := o.w
	var extra []string
	if o.trace {
		extra = append(extra, "-traced")
	}
	srv, orep, genMs, err := startServer(ctx, o, rep, extra...)
	if err != nil {
		return err
	}
	defer srv.finish(rep)
	if err := srv.keepCPUsBusy(); err != nil {
		return fmt.Errorf("start spinners: %w", err)
	}
	traffic, err := dataset.Generate(trafficConfig(o.seed, poolSessions, w.drift))
	if err != nil {
		return err
	}
	reqs, err := buildRequests(traffic, poolSessions, srv.oracle, 0.25)
	if err != nil {
		return err
	}
	gen := newHTTPGen(reqs, o.seed, &rep.check)
	defer gen.close()
	// The fixed-rate phase gets most of an untraced run: its p50 drifts
	// over seconds with the host, so only a long phase averages that
	// out. The ladder's probes share the rest. A traced run splits its
	// time between the untraced and the traced fixed-rate phase.
	dur := time.Duration(o.seconds * float64(time.Second))
	fixedDur, probeDur := dur*7/10, dur*3/10/6
	if o.trace {
		fixedDur = dur / 2
	}

	first, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	phases := []*httpPhase{gen.run(ctx, srv.c.httpURL, w.rate, warmup, false)}
	before, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, _ := procCPU(srv.c.pid())
	tot0, steal0 := cpuJiffies()
	fixed := gen.run(ctx, srv.c.httpURL, w.rate, fixedDur, false)
	phases = append(phases, fixed)
	tot1, steal1 := cpuJiffies()
	cpu1, _ := procCPU(srv.c.pid())
	rep.infof("host steal during the fixed phase: %.1f%% of CPU time", 100*(steal1-steal0)/max(tot1-tot0, 1))
	after, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	lag := newDist(fixed.lagUs)
	if lagP99 := lag.q(0.99); lagP99 > us(maxGenLagP99) {
		rep.problemf("run invalid: generator lag p99 %.0fus exceeds %v", lagP99, maxGenLagP99)
	}
	lat := fixed.latencies()
	sent, ok, flagged := fixed.counts()
	rep.infof("fixed rate %.0f req/s for %v: sent %d, answered %d, flagged share %.4f", w.rate, fixedDur, sent, ok, float64(flagged)/float64(max(ok, 1)))
	rep.infof("fixed rate CPU per request: server %.1f us, generator %.1f us; generator lag p50 %.1f us, p99 %.1f us", cpuPer(cpu0, cpu1, ok), us(fixed.genCPU)/float64(max(sent, 1)), lag.q(0.5), lag.q(0.99))

	if !o.trace {
		p50, wins := fixed.windowed(0.5)
		p99, _ := fixed.windowed(0.99)
		rep.set("p50_ms", p50, len(lat), fmt.Sprintf("at %.0f req/s, median of %d one-second windows; whole phase %.4g", w.rate, len(wins), lat.q(0.5)))
		rep.set("p99_ms", p99, len(lat), fmt.Sprintf("median of per-second p99s; whole phase p99=%.4g %s ms", lat.q(0.99), lat.tail()))
		rungs := ladderRungs(w.rate)
		known, knownRate := -1, 0.0
		if fixed.meetsLimit() {
			known, knownRate = 0, fixed.achieved()
		}
		best, maxRPS, probes := searchLadder(rungs, known, knownRate, func(rate float64) (bool, float64) {
			p := gen.run(ctx, srv.c.httpURL, rate, probeDur, false)
			phases = append(phases, p)
			pass := p.meetsLimit()
			rep.infof("ladder %.0f req/s: p99 %.3f ms, achieved %.0f, end backlog %d, aborted %v -> pass %v",
				rate, p.latencies().q(0.99), p.achieved(), p.endBacklog, p.aborted, pass)
			return pass, p.achieved()
		})
		if best < 0 {
			rep.problemf("no ladder rung met the limit, not even %.0f req/s", rungs[0])
		} else {
			rep.set("throughput", maxRPS, probes, fmt.Sprintf("max_rps: achieved at rung %.0f req/s", rungs[best]))
		}
	} else {
		traced := gen.run(ctx, srv.c.tracedURL, w.rate, fixedDur, true)
		phases = append(phases, traced)
		spans, err := fetchSpans(ctx, srv.meta, srv.c.tracedURL)
		if err != nil {
			return err
		}
		tlat := traced.latencies()
		rep.set("trace.overhead_ms", tlat.q(0.5)-lat.q(0.5), len(tlat), "traced minus untraced p50")
		clientLayers(rep, traced, spans)
		rep.set("gen.lag_us.p99", lag.q(0.99), len(lag), "untraced fixed phase")
		rep.set("gen.cpu_us_per_req", us(fixed.genCPU)/float64(max(sent, 1)), sent, "untraced fixed phase")
		d := promDelta{before, after}
		rep.set("server.cpu_us_per_req", cpuPer(cpu0, cpu1, ok), ok, "server utime+stime, untraced fixed phase")
		les, counts := d.buckets(famScoreHist, "endpoint", "/v1/collect", "/v1/collect-json")
		rep.set("collect.hist_p99_us", bucketQuantile(les, counts, 0.99), int(histCount(counts)), "bucket upper bound")
		rep.set("collect.scored", d.counter(famCollections), 1, "untraced fixed phase")
		rep.set("collect.rejects", d.counter(famRejected), 1, "untraced fixed phase")
		if scored := d.counter(famCollections); scored > 0 {
			rep.set("audit.record_share", d.counter(famAuditRec)/scored, int(scored), "records / scored")
		}
		runtimeLayers(rep, d)
		setupStageLayers(rep, after)
		trainLayers(rep, []float64{genMs}, []*core.TrainReport{orep})
		if err := probeLayers(ctx, o, rep, srv.oracle, reqs, tcpBlockSize); err != nil {
			return err
		}
	}

	last, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	reconcileHTTP(rep, promDelta{first, last}, phases, w.auditSample > 0)
	return nil
}

// fetchSpans collects the traced listener's handler spans.
func fetchSpans(ctx context.Context, client *http.Client, baseURL string) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+spansPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var spans []span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, fmt.Errorf("decode spans: %w", err)
	}
	return spans, nil
}

// clientLayers reports the client waterfall of a traced phase and the
// net/http self time: the client's wait for the first response byte
// minus the server's handler span for the same request.
func clientLayers(rep *report, p *httpPhase, spans []span) {
	var ph [5][]float64
	var coverage []float64
	bySeq := make(map[int]*httpSample, len(p.samples))
	for i := range p.samples {
		s := &p.samples[i]
		if !s.ok {
			continue
		}
		bySeq[s.seq] = s
		sum := 0.0
		for k := range ph {
			ph[k] = append(ph[k], s.phases[k])
			sum += s.phases[k]
		}
		coverage = append(coverage, sum/s.latUs)
	}
	d := func(k int) dist { return newDist(ph[k]) }
	rep.set("client.queue_us.p50", d(phQueue).q(0.5), len(ph[phQueue]), "due time to GetConn")
	rep.set("client.queue_us.p99", d(phQueue).q(0.99), len(ph[phQueue]), d(phQueue).tail())
	rep.set("client.conn_us.p99", d(phConn).q(0.99), len(ph[phConn]), "GetConn to GotConn")
	rep.set("client.write_us.p50", d(phWrite).q(0.5), len(ph[phWrite]), "GotConn to WroteRequest")
	rep.set("client.wait_us.p50", d(phWait).q(0.5), len(ph[phWait]), "WroteRequest to first byte")
	rep.set("client.wait_us.p99", d(phWait).q(0.99), len(ph[phWait]), d(phWait).tail())
	rep.set("client.read_us.p50", d(phRead).q(0.5), len(ph[phRead]), "first byte to decoded decision")
	rep.set("client.coverage", median(coverage), len(coverage), "sum of phases / client total")

	var self []float64
	handler := map[string][]float64{}
	for _, sp := range spans {
		s, ok := bySeq[sp.Seq]
		if !ok {
			continue
		}
		h := float64(sp.Nanos) / 1e3
		handler[sp.Endpoint] = append(handler[sp.Endpoint], h)
		self = append(self, s.phases[phWait]-h)
	}
	sd := newDist(self)
	rep.set("nethttp.self_us.p50", sd.q(0.5), len(sd), "client wait minus handler span")
	rep.set("nethttp.self_us.p99", sd.q(0.99), len(sd), sd.tail())
	for label, path := range map[string]string{"binary": "/v1/collect", "json": "/v1/collect-json"} {
		hd := newDist(handler[path])
		rep.set("collect.handler_us."+label+".p50", hd.q(0.5), len(hd), "span around (*collect.Server).ServeHTTP")
		rep.set("collect.handler_us."+label+".p99", hd.q(0.99), len(hd), hd.tail())
	}
}

// reconcileHTTP checks the client's counts against the server's
// /metrics deltas over the whole run.
func reconcileHTTP(rep *report, d promDelta, phases []*httpPhase, audited bool) {
	ok, flagged := 0, 0
	for _, p := range phases {
		_, o, f := p.counts()
		ok, flagged = ok+o, flagged+f
	}
	if got := d.counter(famCollections); got != float64(ok) {
		rep.problemf("reconcile: server scored %.0f collections, client got %d correct decisions", got, ok)
	}
	if got := d.counter(famFlagged); got != float64(flagged) {
		rep.problemf("reconcile: server flagged %.0f, client saw %d flagged", got, flagged)
	}
	if got := d.counter(famRejected); got != float64(rep.check.non2xx) {
		rep.problemf("reconcile: server rejected %.0f, client saw %d non-2xx", got, rep.check.non2xx)
	}
	if audited {
		rec, drop := d.counter(famAuditRec), d.counter(famAuditDrop)
		if rec+drop != d.counter(famCollections) {
			rep.problemf("reconcile: audit records %.0f + dropped %.0f != scored %.0f", rec, drop, d.counter(famCollections))
		}
		if rec < float64(flagged) {
			rep.problemf("reconcile: %0.f audit records, fewer than %d flagged decisions", rec, flagged)
		}
		if rec > 0 {
			rep.infof("audit: %.0f records, %.0f bytes/record", rec, d.counter(famAuditBytes)/rec)
		}
	}
	rep.infof("server-reported flagged share %.4f over %.0f scored", d.counter(famFlagged)/math.Max(1, d.counter(famCollections)), d.counter(famCollections))
}

// tcpPhase is one closed-loop TCP phase.
type tcpPhase struct {
	elapsed time.Duration
	rttUs   []float64
	// doneAt[i] is when block i's replies were all read, from the
	// phase start.
	doneAt  []time.Duration
	frames  int
	flagged int
	errFlag int
	genCPU  time.Duration
	// traced only
	writeUs, waitUs, readUs, frameUs []float64
}

// perSecond counts the blocks completed in each whole second.
func (p *tcpPhase) perSecond() []int {
	out := make([]int, int(p.elapsed/time.Second))
	for _, t := range p.doneAt {
		if w := int(t / time.Second); w < len(out) {
			out[w]++
		}
	}
	return out
}

// windowed is httpPhase.windowed for block round trips (ms).
func (p *tcpPhase) windowed(q float64) (float64, []float64) {
	byWin := make([][]float64, int(p.elapsed/time.Second))
	for i, t := range p.doneAt {
		if w := int(t / time.Second); w < len(byWin) {
			byWin[w] = append(byWin[w], p.rttUs[i]/1e3)
		}
	}
	var perWin []float64
	for _, v := range byWin {
		if len(v) > 0 {
			perWin = append(perWin, newDist(v).q(q))
		}
	}
	return median(perWin), perWin
}

// tcpGen replays pre-encoded 64-frame blocks over two connections; each
// connection waits for a block's replies before sending the next.
type tcpGen struct {
	reqs   []request
	blocks [][]byte
	conns  [genConns]net.Conn
	next   atomic.Int64
	check  *checker
}

func newTCPGen(addr string, reqs []request, check *checker) (*tcpGen, error) {
	g := &tcpGen{reqs: reqs, check: check}
	for b := 0; b+tcpBlockSize <= len(reqs); b += tcpBlockSize {
		var block []byte
		for _, r := range reqs[b : b+tcpBlockSize] {
			block = appendFrame(block, r.binary)
		}
		g.blocks = append(g.blocks, block)
	}
	for i := range g.conns {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns[i] = c
		if _, err := io.WriteString(c, tcpHello); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func (g *tcpGen) close() {
	for _, c := range g.conns {
		if c != nil {
			c.Close()
		}
	}
}

// run replays blocks for dur. A connection error ends that connection's
// share of the run and fails its block.
func (g *tcpGen) run(dur time.Duration, traced bool) *tcpPhase {
	var mu sync.Mutex
	out := &tcpPhase{}
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, conn := range g.conns {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			local := &tcpPhase{}
			var errs []error
			buf := make([]byte, tcpBlockSize*tcpReplySize)
			for time.Now().Before(deadline) {
				b := int(g.next.Add(1)-1) % len(g.blocks)
				if err := g.block(conn, b, buf, traced, local, start); err != nil {
					errs = append(errs, err)
					local.frames += tcpBlockSize
					break
				}
				for j := 0; j < tcpBlockSize; j++ {
					r := &g.reqs[b*tcpBlockSize+j]
					errFlag, err := r.checkTCP(buf[j*tcpReplySize : (j+1)*tcpReplySize])
					local.frames++
					switch {
					case errFlag:
						local.errFlag++
						errs = append(errs, err)
					case err != nil:
						errs = append(errs, oracleMismatch{err})
					case r.want.Flagged:
						local.flagged++
					}
				}
			}
			g.check.add(local.frames, errs)
			mu.Lock()
			out.frames += local.frames
			out.flagged += local.flagged
			out.errFlag += local.errFlag
			out.rttUs = append(out.rttUs, local.rttUs...)
			out.doneAt = append(out.doneAt, local.doneAt...)
			out.writeUs = append(out.writeUs, local.writeUs...)
			out.waitUs = append(out.waitUs, local.waitUs...)
			out.readUs = append(out.readUs, local.readUs...)
			out.frameUs = append(out.frameUs, local.frameUs...)
			mu.Unlock()
		}(conn)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.genCPU = selfCPU() - cpu0
	return out
}

// block writes one block and reads its replies into buf.
func (g *tcpGen) block(conn net.Conn, b int, buf []byte, traced bool, p *tcpPhase, start time.Time) error {
	t0 := time.Now()
	conn.SetDeadline(t0.Add(10 * time.Second))
	if _, err := conn.Write(g.blocks[b]); err != nil {
		return fmt.Errorf("tcp write: %w", err)
	}
	if !traced {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return fmt.Errorf("tcp read: %w", err)
		}
		tl := time.Now()
		p.rttUs = append(p.rttUs, us(tl.Sub(t0)))
		p.doneAt = append(p.doneAt, tl.Sub(start))
		return nil
	}
	tw := time.Now()
	var tFirst time.Time
	for got := 0; got < len(buf); {
		n, err := conn.Read(buf[got:])
		t := time.Now()
		if n > 0 && got == 0 {
			tFirst = t
		}
		for j := got / tcpReplySize; j < (got+n)/tcpReplySize; j++ {
			p.frameUs = append(p.frameUs, us(t.Sub(t0)))
		}
		got += n
		if err != nil && got < len(buf) {
			return fmt.Errorf("tcp read: %w", err)
		}
	}
	tl := time.Now()
	p.rttUs = append(p.rttUs, us(tl.Sub(t0)))
	p.doneAt = append(p.doneAt, tl.Sub(start))
	p.writeUs = append(p.writeUs, us(tw.Sub(t0)))
	p.waitUs = append(p.waitUs, us(tFirst.Sub(tw)))
	p.readUs = append(p.readUs, us(tl.Sub(tFirst)))
	return nil
}

// runTCP drives replay-tcp: two connections pipelining 64-frame blocks
// into the frame coalescer, closed loop.
func runTCP(ctx context.Context, o *options, rep *report) error {
	srv, orep, genMs, err := startServer(ctx, o, rep, "-tcp")
	if err != nil {
		return err
	}
	defer srv.finish(rep)
	traffic, err := dataset.Generate(trafficConfig(o.seed, poolSessions, false))
	if err != nil {
		return err
	}
	reqs, err := buildRequests(traffic, poolSessions, srv.oracle, 0)
	if err != nil {
		return err
	}
	gen, err := newTCPGen(srv.c.tcpAddr, reqs, &rep.check)
	if err != nil {
		return err
	}
	defer gen.close()
	first, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	phases := []*tcpPhase{gen.run(warmup, false)}
	before, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, _ := procCPU(srv.c.pid())
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	main := gen.run(dur, false)
	phases = append(phases, main)
	cpu1, _ := procCPU(srv.c.pid())
	after, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	rtt := newDist(main.rttUs)
	for i := range rtt {
		rtt[i] /= 1e3
	}
	rep.infof("%d frames in %v, flagged share %.4f", main.frames, main.elapsed, float64(main.flagged)/float64(max(main.frames, 1)))
	if !o.trace {
		p50, wins := main.windowed(0.5)
		p99, _ := main.windowed(0.99)
		rep.set("p50_ms", p50, len(rtt), fmt.Sprintf("64-frame block round trip, median of %d one-second windows; whole phase %.4g", len(wins), rtt.q(0.5)))
		rep.set("p99_ms", p99, len(rtt), fmt.Sprintf("median of per-second p99s; whole phase p99=%.4g %s ms", rtt.q(0.99), rtt.tail()))
		var fps []float64
		for _, n := range main.perSecond() {
			fps = append(fps, float64(n*tcpBlockSize))
		}
		rep.set("throughput", median(fps), main.frames, fmt.Sprintf("throughput_fps: median frames per second over %d seconds; whole phase %.0f", len(fps), float64(main.frames)/main.elapsed.Seconds()))
	} else {
		traced := gen.run(dur, true)
		phases = append(phases, traced)
		trtt := newDist(traced.rttUs)
		rep.set("trace.overhead_ms", (trtt.q(0.5)-rtt.q(0.5)*1e3)/1e3, len(trtt), "traced minus untraced p50")
		d := promDelta{before, after}
		batchN := d.counter(famTCPBatch + "_count")
		batchMean := d.counter(famTCPBatch+"_sum") / batchN
		rep.set("tcp.batch_mean", batchMean, int(batchN), "frames per coalesced batch")
		fd := newDist(traced.frameUs)
		rep.set("tcp.frame_us.p50", fd.q(0.5), len(fd), "block write start to the frame's reply")
		rep.set("tcp.frame_us.p99", fd.q(0.99), len(fd), fd.tail())
		rep.set("tcp.block_write_us", median(traced.writeUs), len(traced.writeUs), "p50")
		rep.set("tcp.block_wait_us", median(traced.waitUs), len(traced.waitUs), "p50, write done to first reply byte")
		rep.set("tcp.block_read_us", median(traced.readUs), len(traced.readUs), "p50, first to last reply byte")
		rep.set("server.cpu_us_per_req", cpuPer(cpu0, cpu1, main.frames), main.frames, "per frame, untraced phase")
		rep.set("gen.cpu_us_per_req", us(main.genCPU)/float64(max(main.frames, 1)), main.frames, "per frame, untraced phase")
		runtimeLayers(rep, d)
		setupStageLayers(rep, after)
		trainLayers(rep, []float64{genMs}, []*core.TrainReport{orep})
		batch := int(math.Round(batchMean))
		if batch < 1 {
			batch = 1
		}
		if err := probeLayers(ctx, o, rep, srv.oracle, reqs, batch); err != nil {
			return err
		}
	}
	last, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	d := promDelta{first, last}
	frames, flagged, errFlag := 0, 0, 0
	for _, p := range phases {
		frames, flagged, errFlag = frames+p.frames, flagged+p.flagged, errFlag+p.errFlag
	}
	if got := d.counter(famTCPScored); got != float64(frames-errFlag) {
		rep.problemf("reconcile: server scored %.0f TCP frames, client got %d replies", got, frames-errFlag)
	}
	if got := d.counter(famTCPFlagged); got != float64(flagged) {
		rep.problemf("reconcile: server flagged %.0f TCP frames, client saw %d", got, flagged)
	}
	if got := d.counter(famTCPBad); got != float64(errFlag) {
		rep.problemf("reconcile: server counted %.0f bad frames, client saw %d error replies", got, errFlag)
	}
	if o.trace {
		rep.set("tcp.bad_frames", d.counter(famTCPBad), frames, "whole run")
	}
	return nil
}

// retrainRows is the paper's training-set size.
const retrainRows = 205000

// runRetrain drives retrain: core.TrainContext on 205k sessions,
// repeated for the run's seconds (at least three times).
func runRetrain(ctx context.Context, o *options, rep *report) error {
	cfg := trafficConfig(o.seed, retrainRows, false)
	var genMs []float64
	var traffic *dataset.Dataset
	for k := 0; k < setupLaunches; k++ {
		traffic = nil // let the previous corpus go before the next
		start := time.Now()
		var err error
		traffic, err = dataset.Generate(cfg)
		if err != nil {
			return err
		}
		genMs = append(genMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	rep.set("setup_s", median(genMs)/1e3, len(genMs), "dataset.Generate of 205k sessions, median")
	samples := traffic.Samples()
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}

	var times, tracedTimes []float64
	var reports []*core.TrainReport
	var model *core.Model
	hash := ""
	// A traced run alternates plain and span-recorded trains, so the
	// tracing overhead is not confounded with drift over the run.
	minTrains := 3
	if o.trace {
		minTrains = 4
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minTrains || time.Now().Before(deadline); n++ {
		tctx := ctx
		traced := o.trace && n%2 == 1
		if traced {
			tctx = pipeline.WithSpanRecorder(ctx, &spanCounter{})
		}
		start := time.Now()
		m, tr, err := core.TrainContext(tctx, samples, tc)
		elapsed := float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			rep.check.attempt(err)
			return err
		}
		h, err := m.Hash()
		if err == nil && hash != "" && h != hash {
			err = oracleMismatch{fmt.Errorf("train %d: model hash %s differs from the first run's %s", n, h, hash)}
		}
		if err == nil && m.Accuracy < 0.99 {
			err = fmt.Errorf("train %d: accuracy %.4f below 0.99", n, m.Accuracy)
		}
		rep.check.attempt(err)
		if hash == "" {
			hash = h
		}
		if traced {
			tracedTimes = append(tracedTimes, elapsed)
		} else {
			times = append(times, elapsed)
		}
		reports = append(reports, tr)
		model = m
	}
	td := newDist(times)
	rep.infof("%d trains, model %s, accuracy %.4f", len(times)+len(tracedTimes), hash, model.Accuracy)
	if !o.trace {
		rep.set("p50_ms", td.q(0.5), len(td), "train_s: one core.TrainContext call (in ms)")
		rep.set("p99_ms", td.q(0.99), len(td), td.tail()+" ms")
		rep.set("throughput", float64(len(samples))/(td.q(0.5)/1e3), len(td), "sessions trained per second at the median")
	} else {
		rep.set("trace.overhead_ms", median(tracedTimes)-median(times), len(tracedTimes), "span-recorded minus plain train p50")
		trainLayers(rep, genMs, reports)
		reqs, err := buildRequests(traffic, poolSessions, model, 0.25)
		if err != nil {
			return err
		}
		if err := probeLayers(ctx, o, rep, model, reqs, tcpBlockSize); err != nil {
			return err
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	rep.set("rss_mb", rss, 1, "benchmark process VmHWM")
	return nil
}
