// Command perfbench is the repository's benchmark: three fixed-work
// workloads driven through the public setagreement API from one client
// goroutine, every decision checked for validity and k-agreement. It prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as a
// table followed by one JSON line. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// order the table prints them.
var (
	endToEnd = []metricDef{
		{"decisions_per_s", "1/s"},
		{"latency_p50_us", "us"},
		{"latency_p99_us", "us"},
		{"cpu_us_per_decision", "us"},
		{"alloc_bytes_per_decision", "B"},
		{"heap_live_mb", "MB"},
		{"success_ratio", "ratio"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"register.update_ns", "ns"},
		{"register.scan_ns", "ns"},
		{"register.mem_steps_per_decision", "count"},
		{"register.cas_retries_per_decision", "count"},
		{"core.propose_us", "us"},
		{"core.history_append_ns", "ns"},
		{"core.steps_per_decision", "count"},
		{"core.scans_per_decision", "count"},
		{"handle.propose_us", "us"},
		{"handle.self_us", "us"},
		{"handle.wait_us_per_decision", "us"},
		{"handle.wakeups_per_decision", "count"},
		{"arena.object_us", "us"},
		{"arena.claim_us", "us"},
		{"arena.retire_us", "us"},
		{"arena.pool_hit_ratio", "ratio"},
		{"engine.submit_us_per_proposal", "us"},
		{"engine.first_decision_us", "us"},
		{"engine.parked_peak", "count"},
		{"engine.goroutines_peak", "count"},
		{"engine.inflight_after_drain", "count"},
		{"completion.register_us_per_proposal", "us"},
		{"completion.next_wait_us", "us"},
		{"completion.last_decision_us", "us"},
		{"trace.overhead_ratio", "ratio"},
	}
)

// allocTolerance is how far one pass's bytes allocated per decision may sit
// from the run's median on a single-client workload before the run is
// rejected as measuring different work. The client and the library are
// deterministic; the slack only absorbs allocations the Go runtime makes on
// its own.
const allocTolerance = 0.01

// gcBudget is the heap size at which the benchmark process collects.
const gcBudget = 256 << 20

type config struct {
	workload string
	seed     uint64
	seconds  int // how long the measured passes run; 0 runs minPasses of them
	trace    bool
	sizes    sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	work     work     // every pass's work, identical across passes
	samples  int      // latency samples behind the percentiles, over every pass
	batch    int      // proposals per batch, when percentiles are per batch
	passes   int      // measured passes
	problems []string // why Correct is false
	warnings []string // coverage checks that did not hold
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 36, "seconds to measure for: fixed-work passes repeat until this much time has passed")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	// A fixed GC budget instead of the default GOGC=100: a benchmark
	// process's live heap is a few MiB, so GOGC=100 would collect every few
	// MiB allocated — hundreds of times a second on history-deep — and
	// those collections, not the system, would set the spread between
	// runs. With collection driven by the memory limit, the number of
	// collections follows the bytes allocated, as it does in a server whose
	// live heap dwarfs its allocation bursts.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcBudget)
	cfg.trace = *trace == 1
	cfg.sizes = full
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report(os.Stdout, cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// passLog is what one pass records. Its buffers are reused across passes,
// so the timed section never grows them after the warm-up pass.
type passLog struct {
	recs []record
	lat  []int64 // ns, timed section only
}

// pass is one pass's measurements.
type pass struct {
	setup, timed, cpu time.Duration
	decisions         int // in the timed section
	alloc             uint64
	p50, p99          float64 // ns, over the pass's latency samples
	samples           int     // latency samples behind p50 and p99
	heapLive          int64
	counters          counters
	work              work
	verdict           verdict
}

type span int

const (
	spanObject span = iota
	spanClaim
	spanRetire
	spanSubmit
	spanRegister
	spanNextWait
	spanFirst
	spanLast
	nSpans
)

// tracer collects the durations a traced pass records around the calls it
// makes into each layer. A nil tracer records nothing.
type tracer struct {
	spans              [nSpans][]int64
	parkedPeak         int64
	goroutinesPeak     int64
	inflightAfterDrain []int64
}

func (t *tracer) add(s span, d time.Duration) {
	if t != nil {
		t.spans[s] = append(t.spans[s], int64(d))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runPass runs one pass: setup, the timed section, the oracle, teardown.
func runPass(w workload, log *passLog, tr *tracer) (pass, error) {
	var p pass
	log.recs, log.lat = log.recs[:0], log.lat[:0]
	heap0 := heapAfterGC()
	t0 := time.Now()
	if err := w.setup(log, tr); err != nil {
		return p, fmt.Errorf("setup: %w", err)
	}
	p.setup = time.Since(t0)
	before := w.counters()
	runtime.GC() // setup's garbage is not the timed section's to collect
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	first := len(log.recs)
	cpu0 := cpuTime()
	start := time.Now()
	err := w.run(log, tr)
	p.timed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return p, err
	}
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.decisions = len(log.recs) - first
	p.p50, p.p99 = latencyPercentiles(log.lat, w.batch())
	p.samples = len(log.lat)
	p.counters = w.counters().minus(before)
	p.heapLive = heapAfterGC() - heap0
	if err := w.teardown(tr); err != nil {
		return p, fmt.Errorf("teardown: %w", err)
	}
	p.work = workOf(log.recs)
	p.verdict = check(log.recs, w.k())
	return p, nil
}

// minPasses is the fewest measured passes a run makes, whatever its time
// budget: enough for a median, and for two passes of each kind in a traced
// run.
const minPasses = 4

// run executes a warm-up pass, then measured passes until cfg.seconds have
// passed. A traced run alternates untraced and traced passes, so the two can
// be compared, and ends with the layer ladder.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	res := &result{batch: w.batch(), Metrics: map[string]metric{}}
	log := &passLog{}
	var (
		passes, traced []pass
		tracedLat      []int64
		tr             = &tracer{}
		start          time.Time
	)
	budget := time.Duration(cfg.seconds) * time.Second
	done := func(i int) bool { return i >= minPasses && time.Since(start) >= budget }
	for i := -1; !done(i); i++ {
		if i == 0 {
			start = time.Now()
		}
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		p, err := runPass(w, log, t)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", cfg.workload, i+1, err)
		}
		res.account(p.verdict)
		fmt.Fprintf(os.Stderr, "pass %d: setup %v timed %v decisions/s %.0f p50_us %.3f p99_us %.3f cpu_us %.3f B/decision %.1f\n",
			i+1, p.setup, p.timed, float64(p.decisions)/p.timed.Seconds(), p.p50/1e3, p.p99/1e3,
			float64(p.cpu)/1e3/float64(p.decisions), float64(p.alloc)/float64(p.decisions))
		if i == -1 {
			res.work = p.work
		} else if p.work != res.work {
			res.problem("pass %d did %v, the warm-up pass did %v", i+1, p.work, res.work)
		}
		switch {
		case i == -1:
		case t != nil:
			traced = append(traced, p)
			tracedLat = append(tracedLat, log.lat...)
		default:
			passes = append(passes, p)
		}
	}
	res.passes = len(passes) + len(traced)
	checkAllocs(cfg, res, append(slices.Clone(passes), traced...))
	res.coverage(cfg, passes, traced, tr)
	if cfg.trace {
		ladderLog := &passLog{}
		ru, err := w.ladder(ladderLog)
		if err != nil {
			return nil, fmt.Errorf("%s ladder: %w", cfg.workload, err)
		}
		res.account(check(ladderLog.recs, w.k()))
		res.layerMetrics(cfg, passes, traced, tracedLat, tr, ru)
		res.samples = len(tracedLat)
	} else {
		res.endToEndMetrics(passes)
		for _, p := range passes {
			res.samples += p.samples
		}
	}
	if cfg.workload == "history-deep" && !cfg.trace {
		if err := res.historyAllocCheck(cfg); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

func (r *result) account(v verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed
	if v.first != "" {
		r.problem("oracle: %d of %d proposals failed (%d safety violations); first: %s", v.failed, v.attempted, v.violations, v.first)
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// checkAllocs rejects a single-client run whose passes allocated different
// amounts per decision: they did not do the same work.
func checkAllocs(cfg config, r *result, ps []pass) {
	if cfg.workload == "fanout-contended" || len(ps) == 0 {
		return
	}
	per := make([]float64, len(ps))
	for i, p := range ps {
		per[i] = float64(p.alloc) / float64(p.decisions)
	}
	m := median(per)
	for i, v := range per {
		if v < m*(1-allocTolerance) || v > m*(1+allocTolerance) {
			r.problem("pass %d allocated %.1f B/decision, the run's median is %.1f: passes did different work", i+1, v, m)
		}
	}
}

// coverage checks that each workload exercises the layers it claims to,
// and only those. A failed check is a warning, not a rejection: an
// optimisation may legitimately remove the parks fanout-contended shows
// today, and the report must still be able to show it.
func (r *result) coverage(cfg config, ps, traced []pass, tr *tracer) {
	all := append(slices.Clone(ps), traced...)
	switch cfg.workload {
	case "keyed-sync", "history-deep":
		for i, p := range all {
			c := p.counters
			if c.asyncInFlight != 0 || c.asyncParked != 0 || c.wakeups != 0 {
				r.warn("pass %d touched the engine on a sync workload: in flight %d, parked %d, wakeups %d",
					i+1, c.asyncInFlight, c.asyncParked, c.wakeups)
			}
		}
	case "fanout-contended":
		var wait time.Duration
		for _, p := range all {
			wait += p.counters.wait
		}
		if wait <= 0 {
			r.warn("fanout-contended waited 0 s in total: the workload did not contend")
		}
		if cfg.trace && tr.parkedPeak <= 0 {
			r.warn("fanout-contended parked no proposal: the engine's park and wake were not exercised")
		}
	}
}

// historyAllocCheck runs a small keyed-sync pass and warns unless
// history-deep allocates at least 10× more per decision, the property that
// makes it the deep-history workload.
func (r *result) historyAllocCheck(cfg config) error {
	ref := newKeyedSync(cfg.seed, cfg.sizes.refKeys, cfg.sizes.depth, 0)
	p, err := runPass(ref, &passLog{}, nil)
	if err != nil {
		return fmt.Errorf("keyed-sync reference: %w", err)
	}
	r.account(p.verdict)
	refPer := float64(p.alloc) / float64(p.decisions)
	per := r.Metrics["alloc_bytes_per_decision"].Value
	if per < 10*refPer {
		r.warn("history-deep allocates %.0f B/decision, less than 10× keyed-sync's %.0f", per, refPer)
	}
	return nil
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *result) endToEndMetrics(ps []pass) {
	per := func(f func(p pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	set := func(name string, v float64) { r.set(endToEnd, name, v) }
	set("decisions_per_s", per(func(p pass) float64 { return float64(p.decisions) / p.timed.Seconds() }))
	set("latency_p50_us", per(func(p pass) float64 { return p.p50 / 1e3 }))
	set("latency_p99_us", per(func(p pass) float64 { return p.p99 / 1e3 }))
	set("cpu_us_per_decision", per(func(p pass) float64 { return float64(p.cpu) / 1e3 / float64(p.decisions) }))
	set("alloc_bytes_per_decision", per(func(p pass) float64 { return float64(p.alloc) / float64(p.decisions) }))
	set("heap_live_mb", per(func(p pass) float64 { return float64(p.heapLive) / (1 << 20) }))
	set("success_ratio", float64(r.Attempted-r.Failed)/float64(r.Attempted))
	set("setup_s", per(func(p pass) float64 { return p.setup.Seconds() }))
}

func (r *result) layerMetrics(cfg config, ps, traced []pass, lat []int64, tr *tracer, ru rungs) {
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	var c counters
	decisions := 0
	for _, p := range traced {
		c.steps += p.counters.steps
		c.scans += p.counters.scans
		c.memSteps += p.counters.memSteps
		c.casRetries += p.counters.casRetries
		c.wait += p.counters.wait
		c.wakeups += p.counters.wakeups
		c.created += p.counters.created
		c.poolHits += p.counters.poolHits
		decisions += p.decisions
	}
	perDecision := func(v float64) float64 { return v / float64(decisions) }
	us := func(ns float64) float64 { return ns / 1e3 }
	spanUS := func(s span) float64 { return us(medianInt(tr.spans[s])) }

	set("register.update_ns", ru.updateNS)
	set("register.scan_ns", ru.scanNS)
	set("register.mem_steps_per_decision", perDecision(float64(c.memSteps)))
	set("register.cas_retries_per_decision", perDecision(float64(c.casRetries)))
	set("core.propose_us", ru.proposeUS)
	set("core.history_append_ns", ru.appendNS)
	set("core.steps_per_decision", perDecision(float64(c.steps)))
	set("core.scans_per_decision", perDecision(float64(c.scans)))
	handleUS, selfUS := 0.0, 0.0
	if cfg.workload != "fanout-contended" {
		// Sync workloads time Handle.Propose directly; fanout-contended
		// reaches the handle layer only from inside the engine.
		handleUS = us(medianInt(lat))
		selfUS = handleUS - ru.proposeUS
	}
	set("handle.propose_us", handleUS)
	set("handle.self_us", selfUS)
	set("handle.wait_us_per_decision", perDecision(float64(c.wait.Nanoseconds())/1e3))
	set("handle.wakeups_per_decision", perDecision(float64(c.wakeups)))
	objectUS, claimUS := spanUS(spanObject), spanUS(spanClaim)
	if cfg.workload == "fanout-contended" {
		objectUS, claimUS = ru.objectUS, ru.claimUS
	}
	set("arena.object_us", objectUS)
	set("arena.claim_us", claimUS)
	set("arena.retire_us", spanUS(spanRetire))
	poolHits := 0.0
	if c.created > 0 {
		poolHits = float64(c.poolHits) / float64(c.created)
	}
	set("arena.pool_hit_ratio", poolHits)
	perProposal := func(s span) float64 { return spanUS(s) / (fanKeys * fanContenders) }
	set("engine.submit_us_per_proposal", perProposal(spanSubmit))
	set("engine.first_decision_us", spanUS(spanFirst))
	set("engine.parked_peak", float64(tr.parkedPeak))
	set("engine.goroutines_peak", float64(tr.goroutinesPeak))
	set("engine.inflight_after_drain", meanInt(tr.inflightAfterDrain))
	set("completion.register_us_per_proposal", perProposal(spanRegister))
	set("completion.next_wait_us", us(meanInt(tr.spans[spanNextWait])))
	set("completion.last_decision_us", spanUS(spanLast))
	timed := func(ps []pass) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = p.timed.Seconds()
		}
		return median(vs)
	}
	set("trace.overhead_ratio", timed(traced)/timed(ps)-1)
}

// report prints a table for people, then the JSON line the harness reads.
func report(out io.Writer, cfg config, r *result) {
	mode := "end-to-end"
	defs := endToEnd
	if cfg.trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(out, "perfbench %s seed %d: %d measured passes (%s), work per pass %v\n",
		cfg.workload, cfg.seed, r.passes, mode, r.work)
	switch {
	case cfg.trace:
		fmt.Fprintf(out, "latency samples in traced passes: %d\n", r.samples)
	case r.batch > 0:
		fmt.Fprintf(out, "latency percentiles over %d samples: per batch of %d, median over each pass's batches, then over passes\n",
			r.samples, r.batch)
	default:
		fmt.Fprintf(out, "latency percentiles over %d samples: per pass, median over passes\n", r.samples)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, w := range r.warnings {
		fmt.Fprintln(out, "coverage warning:", w)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Fprintln(out, string(line))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencyPercentiles returns the median and the 99th percentile of lat.
// With batch > 0 the samples come in batches of that many proposals,
// submitted together; the percentiles are then taken within each batch and
// the median over batches is returned: the latency profile of a typical
// batch. Pooled over every batch, the 99th percentile is set by the few
// batches whose last stragglers waited on a late backoff timer, and it
// swings by tens of percent from run to run.
func latencyPercentiles(lat []int64, batch int) (p50, p99 float64) {
	if batch == 0 {
		s := slices.Clone(lat)
		slices.Sort(s)
		return quantileSorted(s, 0.50), quantileSorted(s, 0.99)
	}
	var p50s, p99s []float64
	for i := 0; i+batch <= len(lat); i += batch {
		a, b := latencyPercentiles(lat[i:i+batch], 0)
		p50s, p99s = append(p50s, a), append(p99s, b)
	}
	return median(p50s), median(p99s)
}

func medianInt(vs []int64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted is the q-quantile of the sorted s by linear interpolation
// between order statistics.
func quantileSorted(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(i)
	return float64(s[i]) + frac*float64(s[i+1]-s[i])
}

func meanInt(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	return sum / float64(len(vs))
}
