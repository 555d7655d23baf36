// Command perfbench is the repository benchmark: a closed-loop load
// generator for the /api/v1 serving path of cmd/etable-server, and a traced
// in-process replay of the same request stream that times each layer's
// public entry points. NOTES.md describes the workloads and metrics; run
// it through run.sh, which builds the binaries it drives.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change: it
// is kept to confirm a claim made on other seeds.
const heldOutSeed = 7919

// corpusSeed fixes the generated corpus; the workload seed varies only
// the request stream.
const corpusSeed = 1

// setupSpawns is how many times a run boots the server to measure
// setup_s; the last boot serves the timed window.
const setupSpawns = 15

// workload is one traffic mix against one served snapshot.
type workload struct {
	name   string
	papers int
	// lazy boots the snapshot out of core with a pager budget of
	// pagerSections column sections; maxRows > 0 makes larger results
	// spill.
	lazy          bool
	pagerSections int
	maxRows       int
	// size is the script size per client: loop requests for
	// warm-paging, sessions for the others.
	size  int
	build func(g *gen, size int) (script, error)
	// check asserts, from the server's counters over the timed window,
	// the property the workload was chosen for.
	check func(d statsDelta, ops int) error
}

// maxSessions bounds live sessions on the server. Clients never delete
// sessions (neither does the web UI), so without a bound that is small
// against the scripts, a script's second lap would find its first lap's
// sessions still pinning their results in the cache.
const maxSessions = 64

var workloads = []*workload{
	{
		name:   "warm-paging",
		papers: 5000,
		size:   6000,
		build:  warmPaging,
		check: func(d statsDelta, _ int) error {
			if d.hits+d.misses == 0 || float64(d.hits) < 0.9*float64(d.hits+d.misses) {
				return fmt.Errorf("result-cache hit ratio %d/%d is below 0.9", d.hits, d.hits+d.misses)
			}
			if d.pagerBlock || d.spilled {
				return errors.New("the server reports pager or spill activity")
			}
			return nil
		},
	},
	{
		name:   "cold-explore",
		papers: 5000,
		size:   500,
		build:  coldExplore,
		check: func(d statsDelta, ops int) error {
			// Unfiltered base relations hit on almost every op, so the
			// test is misses per op, not the hit ratio.
			if 2*d.misses < int64(ops) {
				return fmt.Errorf("%d result-cache misses over %d ops: most ops should miss", d.misses, ops)
			}
			return nil
		},
	},
	{
		name:          "out-of-core",
		papers:        12000,
		lazy:          true,
		pagerSections: 5,
		maxRows:       5000,
		size:          100, // one deck of year ranges
		build:         outOfCore,
		check: func(d statsDelta, _ int) error {
			if d.pagerEvictions <= 0 || d.spills <= 0 {
				return fmt.Errorf("pager evictions %d and spills %d, want both > 0", d.pagerEvictions, d.spills)
			}
			return nil
		},
	},
}

// env is one run's configuration and working directory.
type env struct {
	root, bin, dir string
	w              *workload
	seed           int64
	seconds        int
	snapshot       string
	spillDir       string
}

func main() {
	root := flag.String("root", ".", "checkout root: holds .bench_build/bin and receives run files")
	name := flag.String("workload", "", "workload to run: warm-paging, cold-explore or out-of-core")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same request stream")
	seconds := flag.Int("seconds", 25, "length of the timed window (trace 0) or of the traced replay (trace 1)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over loopback; 1: per-layer metrics from a traced in-process replay")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, seconds, trace int) error {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), dir: dir, w: w, seed: seed, seconds: seconds,
		snapshot: filepath.Join(dir, "corpus.etsnap"), spillDir: filepath.Join(dir, "spill")}
	if err := os.Mkdir(e.spillDir, 0o755); err != nil {
		return err
	}
	translate := exec.Command(filepath.Join(e.bin, "etable-translate"), "-papers", strconv.Itoa(w.papers),
		"-seed", strconv.Itoa(corpusSeed), "-o", e.snapshot, "-show", "categories")
	if out, err := translate.CombinedOutput(); err != nil {
		return fmt.Errorf("writing the corpus snapshot: %v\n%s", err, out)
	}
	logf("corpus snapshot written")
	var rep report
	if trace == 1 {
		scripts, prov, err := e.scripts()
		if err != nil {
			return err
		}
		if rep, err = e.traced(scripts); err != nil {
			return err
		}
		rep.print(os.Stdout, prov)
		return nil
	}
	// The boots that measure setup_s run before the oracle loads, so
	// that perfbench's own work does not compete with them.
	srv, setups, err := e.boots()
	if err != nil {
		return err
	}
	defer srv.stop()
	scripts, prov, err := e.scripts()
	if err != nil {
		return err
	}
	if rep, err = e.endToEnd(srv, setups, scripts); err != nil {
		return err
	}
	rep.print(os.Stdout, prov)
	return nil
}

// scripts builds every client's script with the oracle, and the
// provenance stamp. The oracle is not used after that; collecting it
// here keeps it from costing the clients GC time.
func (e *env) scripts() ([]script, map[string]any, error) {
	o, err := newOracle(e.snapshot)
	if err != nil {
		return nil, nil, err
	}
	scripts, err := buildScripts(o, e.w, e.seed)
	if err != nil {
		return nil, nil, err
	}
	prov := e.provenance(o)
	logf("scripts built: %d + %d requests", len(scripts[0].setup)+len(scripts[0].loop), len(scripts[1].setup)+len(scripts[1].loop))
	runtime.GC()
	return scripts, prov, nil
}

// buildScripts builds every client's script, one goroutine per client.
func buildScripts(o *oracle, w *workload, seed int64) ([]script, error) {
	scripts := make([]script, clients)
	errs := make([]error, clients)
	values, err := o.values()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			scripts[c], errs[c] = w.build(newGen(o, values, seed*1000+int64(c)), w.size)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("building the script of client %d: %w", c, err)
		}
	}
	return scripts, nil
}

var started = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// clients is the number of concurrent closed-loop clients: one per CPU
// of the 2-vCPU host the benchmark was sized on.
const clients = 2

// serverArgs are the server flags for the workload, besides -addr.
func (e *env) serverArgs() []string {
	args := []string{"-snapshot", e.snapshot, "-max-sessions", strconv.Itoa(maxSessions)}
	if e.w.lazy {
		args = append(args, "-lazy", "-pager-sections", strconv.Itoa(e.w.pagerSections))
	}
	if e.w.maxRows > 0 {
		args = append(args, "-max-rows", strconv.Itoa(e.w.maxRows), "-spill-dir", e.spillDir)
	}
	return args
}

// boots starts the server setupSpawns times and returns the last one
// running, with the start-up time of each.
func (e *env) boots() (*serverProc, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		p, d, err := startServer(filepath.Join(e.bin, "etable-server"), e.serverArgs(), filepath.Join(e.dir, "server.log"))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupSpawns-1 {
			return p, setups, nil
		}
		p.stop()
	}
}

// endToEnd measures the server over loopback.
func (e *env) endToEnd(srv *serverProc, setups []float64, scripts []script) (report, error) {
	var rep report
	cs := make([]*client, len(scripts))
	for i, sc := range scripts {
		cs[i] = newClient(srv.base, sc)
		defer cs[i].close()
	}
	// The counters the workload check reads are taken around the timed
	// window only.
	var before datasetStats
	var beforeErr error
	warm := time.Duration(e.seconds) * time.Second / 10
	res := measure(cs, warm, time.Duration(e.seconds)*time.Second, func() { before, beforeErr = srv.stats() })
	if beforeErr != nil {
		return rep, beforeErr
	}
	after, err := srv.stats()
	if err != nil {
		return rep, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return rep, err
	}
	rep.attempted, rep.failed = res.attempted+res.early, res.failed+res.earlyFailed
	if res.firstErr != nil {
		rep.problems = append(rep.problems, res.firstErr.Error())
	}
	if err := e.w.check(deltaOf(before, after), len(res.lat[classOp])); err != nil {
		rep.problems = append(rep.problems, "workload check: "+err.Error())
	}
	op, page := res.lat[classOp], res.lat[classPage]
	for _, k := range []class{classOp, classPage} {
		if n := len(res.lat[k]); n < 1000 {
			rep.notes = append(rep.notes, fmt.Sprintf("only %d %s samples in the window, want >= 1000", n, k))
		}
	}
	rep.add("op_p50_ms", quantile(op, 0.50)*1e3, "ms", len(op))
	rep.add("op_p99_ms", quantile(op, 0.99)*1e3, "ms", len(op))
	rep.add("page_p50_ms", quantile(page, 0.50)*1e3, "ms", len(page))
	rep.add("page_p99_ms", quantile(page, 0.99)*1e3, "ms", len(page))
	done := res.attempted - res.failed
	rep.add("throughput_rps", float64(done)/res.elapsed.Seconds(), "1/s", done)
	rep.info("error_rate", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	rep.info("create_p50_ms", quantile(res.lat[classCreate], 0.5)*1e3, "ms", len(res.lat[classCreate]))
	rep.add("setup_s", quantile(setups, 0.5), "s", len(setups))
	rep.add("peak_rss_mb", rss, "MiB", 1)
	return rep, nil
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int
	// info metrics are printed but are not part of the result object.
	info bool
}

// report is what one run prints: a human-readable table, then the
// result object as the last line.
type report struct {
	metrics           []metric
	attempted, failed int
	// problems make the run incorrect; notes do not.
	problems, notes []string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: n})
}

func (r *report) info(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: n, info: true})
}

func (r *report) print(w io.Writer, prov map[string]any) {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", p)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "BROKEN:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		if !m.info {
			metrics[m.name] = value{m.value, m.unit}
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, max(r.attempted, 1), r.failed, metrics})
	fmt.Fprintln(w, string(out))
}

// provenance stamps a result with what it was measured on.
func (e *env) provenance(o *oracle) map[string]any {
	commit := "unknown: the checkout is not a git repository"
	if _, err := os.Stat(filepath.Join(e.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	snapBytes := int64(0)
	if fi, err := os.Stat(e.snapshot); err == nil {
		snapBytes = fi.Size()
	}
	gomemlimit := os.Getenv("GOMEMLIMIT")
	if gomemlimit == "" {
		gomemlimit = "unset"
	}
	spill := "off"
	if e.w.maxRows > 0 {
		spill = e.spillDir
	}
	return map[string]any{
		"workload":       e.w.name,
		"seed":           e.seed,
		"held_out_seed":  heldOutSeed,
		"commit":         commit,
		"source_sha256":  sourceHash(e.root),
		"go":             runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"gomemlimit":     gomemlimit,
		"clients":        clients,
		"corpus_papers":  e.w.papers,
		"corpus_seed":    corpusSeed,
		"corpus_nodes":   o.graph.NumNodes(),
		"corpus_edges":   o.graph.NumEdges(),
		"snapshot_bytes": snapBytes,
		"lazy":           e.w.lazy,
		"pager_sections": e.w.pagerSections,
		"max_rows":       e.w.maxRows,
		"max_sessions":   maxSessions,
		"spill_dir":      spill,
	}
}

// sourceHash digests the Go sources and module files of the program
// under test, standing in for a commit id where there is no repository.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
