package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/rng"
)

const (
	// p99Limit is the latency limit of the max_rps ladder: half the
	// paper's 100 ms scoring budget.
	p99Limit = 50 * time.Millisecond
	// genConns is the generator's connection budget.
	genConns = 2
	// maxGenLagP99 marks a fixed-rate phase invalid: beyond it the
	// generator, not the server, sets the latency.
	maxGenLagP99 = 10 * time.Millisecond
	ladderStep   = 1.05
	ladderTop    = 32000.0
)

// httpSample is one request's outcome. Latency runs from the request's
// due time to its decoded decision; a failed request reads +Inf.
type httpSample struct {
	sent    bool
	ok      bool
	flagged bool
	json    bool
	seq     int
	latUs   float64
	due     time.Duration // offset from the phase start
	done    time.Time
	// phases (µs, traced only): queue, conn, write, wait, read. They
	// telescope, so their sum is latUs.
	phases [5]float64
}

const (
	phQueue = iota
	phConn
	phWrite
	phWait
	phRead
)

// httpPhase is one open-loop phase at a fixed offered rate.
type httpPhase struct {
	rate       float64
	dur        time.Duration
	start      time.Time
	samples    []httpSample
	lagUs      []float64
	aborted    bool
	endBacklog int
	genCPU     time.Duration
}

// latencies returns the latency distribution of the requests sent.
func (p *httpPhase) latencies() dist {
	v := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		if p.samples[i].sent {
			v = append(v, p.samples[i].latUs/1e3)
		}
	}
	return newDist(v)
}

// windowed returns the q-quantile of latency (ms) within each whole
// second of the schedule, and the median of those per-second values:
// a stall confined to one second moves one window, not the result.
func (p *httpPhase) windowed(q float64) (float64, []float64) {
	byWin := map[int][]float64{}
	for i := range p.samples {
		s := &p.samples[i]
		if s.sent {
			w := int(s.due / time.Second)
			byWin[w] = append(byWin[w], s.latUs/1e3)
		}
	}
	var perWin []float64
	for w := 0; w < int(p.dur/time.Second); w++ {
		if v := byWin[w]; len(v) > 0 {
			perWin = append(perWin, newDist(v).q(q))
		}
	}
	return median(perWin), perWin
}

// counts returns requests sent, answered correctly, and flagged.
func (p *httpPhase) counts() (sent, ok, flagged int) {
	for i := range p.samples {
		s := &p.samples[i]
		if s.sent {
			sent++
		}
		if s.ok {
			ok++
			if s.flagged {
				flagged++
			}
		}
	}
	return
}

// achieved is the completion rate: correct answers over the time from
// the phase start to the last answer (at least the phase length).
func (p *httpPhase) achieved() float64 {
	_, ok, _ := p.counts()
	last := p.start.Add(p.dur)
	for i := range p.samples {
		if p.samples[i].ok && p.samples[i].done.After(last) {
			last = p.samples[i].done
		}
	}
	return float64(ok) / last.Sub(p.start).Seconds()
}

// backlogLimit is the most requests that may wait unsent when the last
// one is due: 5 ms of arrivals, at least 16.
func backlogLimit(rate float64) int { return max(16, int(rate*0.005)) }

// meetsLimit applies the ladder's three conditions to a phase.
func (p *httpPhase) meetsLimit() bool {
	if p.aborted || p.endBacklog > backlogLimit(p.rate) {
		return false
	}
	sent, ok, _ := p.counts()
	if sent == 0 || ok != sent {
		return false
	}
	return p.latencies().q(0.99) <= float64(p99Limit.Milliseconds()) && p.achieved() >= 0.99*p.rate
}

// httpGen is the open-loop generator: pre-encoded requests, two
// connections, one dispatcher.
type httpGen struct {
	reqs  []request
	next  int
	seq   int
	conns [genConns]*httpConn
	gen   *rng.PCG
	check *checker
}

func newHTTPGen(reqs []request, seed uint64, check *checker) *httpGen {
	g := &httpGen{reqs: reqs, gen: rng.New(seed ^ 0x7061636572), check: check}
	for i := range g.conns {
		g.conns[i] = &httpConn{}
	}
	return g
}

func (g *httpGen) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// run offers rate req/s to baseURL for dur. With traced set, every
// request carries its sequence number and the client stamps its phases.
func (g *httpGen) run(ctx context.Context, baseURL string, rate float64, dur time.Duration, traced bool) *httpPhase {
	addr := strings.TrimPrefix(baseURL, "http://")
	offs := arrivals(rate, dur, g.gen)
	first := g.next
	g.next += len(offs)
	seqBase := g.seq
	g.seq += len(offs)

	p := &httpPhase{rate: rate, dur: dur, samples: make([]httpSample, len(offs))}
	cpu0 := selfCPU()
	p.start = time.Now().Add(2 * time.Millisecond)
	d := newDispatcher(p.start, offs, int(rate*0.25)+64)
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *httpConn) {
			defer wg.Done()
			for i := range d.queue {
				if d.aborted.Load() || ctx.Err() != nil {
					continue
				}
				r := &g.reqs[(first+i)%len(g.reqs)]
				p.samples[i].due = offs[i]
				g.do(c, addr, r, d.due(i), seqBase+i, traced, &p.samples[i])
			}
		}(c)
	}
	d.run()
	wg.Wait()
	p.genCPU = selfCPU() - cpu0
	p.lagUs = d.lagUs
	p.aborted = d.aborted.Load()
	p.endBacklog = d.endBacklog
	return p
}

// do sends one request and records its outcome.
func (g *httpGen) do(c *httpConn, addr string, r *request, due time.Time, seq int, traced bool, s *httpSample) {
	s.sent, s.seq, s.json = true, seq, r.path == collect.EndpointJSON
	var st stamps
	err := g.exchange(c, addr, r, seq, traced, &st)
	s.done = time.Now()
	g.check.attempt(err)
	if err != nil {
		s.latUs = math.Inf(1)
		return
	}
	s.ok, s.flagged = true, r.want.Flagged
	s.latUs = us(s.done.Sub(due))
	if traced {
		s.phases = [5]float64{
			us(st.getConn.Sub(due)), us(st.gotConn.Sub(st.getConn)), us(st.wrote.Sub(st.gotConn)),
			us(st.first.Sub(st.wrote)), us(s.done.Sub(st.first)),
		}
	}
}

// exchange posts the body and checks the decision against the oracle.
func (g *httpGen) exchange(c *httpConn, addr string, r *request, seq int, traced bool, st *stamps) error {
	status, body, err := c.post(addr, r, seq, traced, st)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusError{fmt.Errorf("%s: status %d: %.80s", r.path, status, body)}
	}
	var d httpDecision
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("%s: decode decision: %w", r.path, err)
	}
	if err := r.checkHTTP(&d); err != nil {
		return oracleMismatch{err}
	}
	return nil
}

// httpConn is one keep-alive HTTP/1.1 connection of the generator.
// net/http's client spent about as much CPU per request as the server
// did, so on a two-core box the generator measured itself; this client
// writes pre-encoded requests and parses responses only as far as the
// status line and a Content-Length body. It stamps the four boundaries
// net/http/httptrace defines: GetConn, GotConn, WroteRequest and
// GotFirstResponseByte.
type httpConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// stamps are one request's phase boundaries.
type stamps struct{ getConn, gotConn, wrote, first time.Time }

func (c *httpConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one request and returns the response status and body. Any
// error closes the connection; the next request redials.
func (c *httpConn) post(addr string, r *request, seq int, traced bool, st *stamps) (int, []byte, error) {
	st.getConn = time.Now()
	if c.conn == nil || c.addr != addr {
		c.close()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.addr, c.br = conn, addr, bufio.NewReaderSize(conn, 4096)
	}
	st.gotConn = time.Now()
	status, body, err := c.roundTrip(addr, r, seq, traced, st)
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *httpConn) roundTrip(addr string, r *request, seq int, traced bool, st *stamps) (int, []byte, error) {
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	msg := append(c.buf[:0], "POST "...)
	msg = append(msg, r.path...)
	msg = append(msg, " HTTP/1.1\r\nHost: "...)
	msg = append(msg, addr...)
	msg = append(msg, "\r\n"...)
	msg = append(msg, r.head...)
	if traced {
		msg = append(msg, seqHeader+": "...)
		msg = strconv.AppendInt(msg, int64(seq), 10)
		msg = append(msg, "\r\n"...)
	}
	msg = append(msg, "\r\n"...)
	msg = append(msg, r.body...)
	c.buf = msg
	if _, err := c.conn.Write(msg); err != nil {
		return 0, nil, err
	}
	st.wrote = time.Now()
	line, err := c.br.ReadSlice('\n')
	st.first = time.Now()
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	_, code, ok := strings.Cut(string(line), " ")
	if !ok || len(code) < 3 {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(code[:3])
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if name, v, ok := bytes.Cut(h, []byte(":")); ok && strings.EqualFold(string(name), "Content-Length") {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 || length > 64<<10 {
		return 0, nil, fmt.Errorf("response without a usable Content-Length (%d)", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, fmt.Errorf("read body: %w", err)
	}
	return status, body, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ladderRungs is the fixed ladder of offered rates: from the
// workload's fixed rate up by 5% a rung, rounded to 10 req/s.
func ladderRungs(base float64) []float64 {
	var out []float64
	for r := base; r <= ladderTop; r *= ladderStep {
		out = append(out, math.Round(r/10)*10)
	}
	return out
}

// searchLadder finds the highest rung that passes by bisection, given
// that rung known passes (−1 when none is known). probe reports
// whether a rung passes and the rate it achieved. It makes at most
// ⌈log2(len(rungs)−known)⌉ probes whatever probe answers, and returns
// the best passing rung (or known) and its achieved rate.
func searchLadder(rungs []float64, known int, knownRate float64, probe func(rate float64) (bool, float64)) (best int, rate float64, probes int) {
	lo, hi := known, len(rungs)
	best, rate = known, knownRate
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		probes++
		if pass, achieved := probe(rungs[mid]); pass {
			lo, best, rate = mid, mid, achieved
		} else {
			hi = mid
		}
	}
	return best, rate, probes
}

// oracleMismatch marks a decision that differs from the oracle.
type oracleMismatch struct{ error }

// statusError marks a non-2xx answer: the server rejected the request.
type statusError struct{ error }

// checker counts attempts and failures across goroutines and keeps the
// first few failure messages for the report.
type checker struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	mismatches int64
	non2xx     int64
	msgs       []string
}

func (c *checker) attempt(err error) {
	var errs []error
	if err != nil {
		errs = []error{err}
	}
	c.add(1, errs)
}

// add records n attempts, len(errs) of which failed.
func (c *checker) add(n int, errs []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += int64(n)
	c.failed += int64(len(errs))
	for _, err := range errs {
		switch err.(type) {
		case oracleMismatch:
			c.mismatches++
		case statusError:
			c.non2xx++
		}
		if len(c.msgs) < 5 {
			c.msgs = append(c.msgs, err.Error())
		}
	}
}
