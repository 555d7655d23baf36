package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one etable-server process under test.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server binary and returns once GET
// /api/v1/schema answers 200, with the time that took: process spawn,
// snapshot load (or lazy open) and listen.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	p := &serverProc{base: "http://127.0.0.1:" + strconv.Itoa(port), log: logf, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// The server must not outlive perfbench, however perfbench ends.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/api/v1/schema")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				hc.CloseIdleConnections()
				return p, setup, nil
			}
		}
		select {
		case <-p.done:
			logf.Close()
			return nil, 0, fmt.Errorf("server exited during start-up; log in %s", logPath)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("server did not answer within 60s; log in %s", logPath)
		}
	}
}

// stop kills the server and waits until it has exited.
func (p *serverProc) stop() {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// peakRSSMiB reads the server's VmHWM.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// datasetStats is the part of /api/v1/stats the validity checks read:
// the default dataset's cache, pager and spill counters.
type datasetStats struct {
	Default     bool  `json:"default"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Pager       *struct {
		Evictions int64 `json:"evictions"`
	} `json:"pager"`
	Spill *struct {
		Spills int64 `json:"spills"`
	} `json:"spill"`
}

func (p *serverProc) stats() (datasetStats, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(p.base + "/api/v1/stats")
	if err != nil {
		return datasetStats{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Datasets []datasetStats `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return datasetStats{}, fmt.Errorf("decoding /api/v1/stats: %w", err)
	}
	for _, d := range out.Datasets {
		if d.Default {
			return d, nil
		}
	}
	return datasetStats{}, errors.New("/api/v1/stats lists no default dataset")
}

// statsDelta is the change of the server's counters over the timed
// window.
type statsDelta struct {
	hits, misses, pagerEvictions, spills int64
	pagerBlock, spilled                  bool
}

func deltaOf(before, after datasetStats) statsDelta {
	d := statsDelta{hits: after.CacheHits - before.CacheHits, misses: after.CacheMisses - before.CacheMisses}
	if after.Pager != nil {
		d.pagerBlock = true
		d.pagerEvictions = after.Pager.Evictions
		if before.Pager != nil {
			d.pagerEvictions -= before.Pager.Evictions
		}
	}
	if after.Spill != nil {
		d.spilled = true
		d.spills = after.Spill.Spills
		if before.Spill != nil {
			d.spills -= before.Spill.Spills
		}
	}
	return d
}

// client replays one script over one keep-alive connection, a closed
// loop with no think time and no retries.
type client struct {
	base    string
	hc      *http.Client
	sc      script
	ids     []int64
	cursors []string
	pos     int // next loop request
	// lat holds the measured latencies of each class, in seconds.
	lat               [len(classNames)][]float64
	attempted, failed int
	firstErr          error
	measuring         bool
	status            int
	buf               bytes.Buffer // response body, reused
}

func newClient(base string, sc script) *client {
	return &client{
		base: base,
		// The timeout only keeps a hung server from hanging the run; a
		// request that hits it fails.
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		sc:      sc,
		ids:     make([]int64, sc.slots),
		cursors: make([]string, sc.slots),
	}
}

// close releases the client's connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// target returns the method, path and body of r, given the id of the
// session its slot is bound to and the slot's last continuation cursor.
func target(r *request, id int64, cursor string) (method, path string, body []byte, err error) {
	switch {
	case r.class == classCreate:
		return http.MethodPost, "/api/v1/sessions", nil, nil
	case r.class == classOp:
		return http.MethodPost, fmt.Sprintf("/api/v1/sessions/%d/ops?offset=%d&limit=%d", id, r.offset, r.limit), r.body, nil
	case r.cursor && cursor == "":
		return "", "", nil, errors.New("script expects a cursor the last response did not carry")
	case r.cursor:
		return http.MethodGet, fmt.Sprintf("/api/v1/sessions/%d?cursor=%s", id, cursor), nil, nil
	default:
		return http.MethodGet, fmt.Sprintf("/api/v1/sessions/%d?offset=%d&limit=%d", id, r.offset, r.limit), nil, nil
	}
}

// check verifies a response against the oracle and, on success, records
// the session id or continuation cursor it carries for the slot.
func check(r *request, status int, body []byte, ids []int64, cursors []string) error {
	want := http.StatusOK
	if r.class == classCreate {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	got, err := scanResponse(body)
	if err != nil {
		return err
	}
	if r.class == classCreate {
		if got.id <= 0 {
			return fmt.Errorf("created session has id %d", got.id)
		}
		ids[r.slot] = got.id
	} else if got.hash != r.want.hash {
		return fmt.Errorf("oracle mismatch: totalRows %d, want %d (hash %x, want %x)",
			got.totalRows, r.want.total, got.hash, r.want.hash)
	}
	cursors[r.slot] = got.nextCursor
	return nil
}

// do sends one request, times it from send to body read, and checks the
// response against the oracle. A failure is a transport error, a non-2xx
// status or a body the oracle rejects.
func (c *client) do(r *request) {
	c.attempted++
	err := c.roundTrip(r)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s request: %w", r.class, err)
		}
	}
}

func (c *client) roundTrip(r *request) error {
	elapsed, err := c.exchange(r)
	if err != nil {
		return err
	}
	if err := check(r, c.status, c.buf.Bytes(), c.ids, c.cursors); err != nil {
		return err
	}
	if c.measuring {
		c.lat[r.class] = append(c.lat[r.class], elapsed)
	}
	return nil
}

// exchange sends r and reads the response into c.status and c.buf. It
// returns the seconds from sending the request to reading the body.
func (c *client) exchange(r *request) (float64, error) {
	method, path, body, err := target(r, c.ids[r.slot], c.cursors[r.slot])
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.status = resp.StatusCode
	return time.Since(start).Seconds(), err
}

// next returns the next loop request, wrapping around.
func (c *client) next() *request {
	r := &c.sc.loop[c.pos]
	c.pos = (c.pos + 1) % len(c.sc.loop)
	return r
}

// runClients runs every client's loop until the deadline, concurrently.
func runClients(clients []*client, until time.Time) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(until) {
				c.do(c.next())
			}
		}(c)
	}
	wg.Wait()
}

// loadResult is the outcome of one timed window.
type loadResult struct {
	lat               [len(classNames)][]float64
	attempted, failed int
	// early and earlyFailed count the requests of the set-up and the
	// warm-up, and their failures.
	early, earlyFailed int
	elapsed            time.Duration
	firstErr           error
}

// measure runs each client's setup, warms up for warm, calls
// atWindow, then runs the timed window for dur.
func measure(clients []*client, warm, dur time.Duration, atWindow func()) loadResult {
	for _, c := range clients {
		for i := range c.sc.setup {
			c.do(&c.sc.setup[i])
		}
	}
	runClients(clients, time.Now().Add(warm))
	var early, earlyFailed int
	for _, c := range clients {
		early, earlyFailed = early+c.attempted, earlyFailed+c.failed
		c.measuring = true
		c.attempted, c.failed = 0, 0
	}
	atWindow()
	start := time.Now()
	runClients(clients, start.Add(dur))
	res := loadResult{early: early, earlyFailed: earlyFailed, elapsed: time.Since(start)}
	for _, c := range clients {
		for k := range c.lat {
			res.lat[k] = append(res.lat[k], c.lat[k]...)
		}
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	return res
}
