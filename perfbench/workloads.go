package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	sa "setagreement"
)

// A workload is one fixed amount of work, generated from a seed. Each pass
// builds fresh state in setup, runs the timed section, and retires the
// state again, so every pass of one seed does identical work: no number
// depends on how long the run lasts or on how many instances an object
// decided in an earlier pass.
type workload interface {
	// k is the agreement degree the oracle checks.
	k() int
	// batch is the number of proposals submitted together, whose latencies
	// are summarised per batch; 0 when proposals are sent one at a time.
	batch() int
	// setup builds and pre-warms the pass's state; it is timed as setup_s.
	setup(log *passLog, tr *tracer) error
	// run is the timed section.
	run(log *passLog, tr *tracer) error
	// counters reads the pass's layer counters through the public Stats.
	counters() counters
	// teardown retires the pass's state; it is not timed.
	teardown(tr *tracer) error
	// ladder drives the same inputs into the lower layers directly.
	ladder(log *passLog) (rungs, error)
}

// counters are the public Stats/ArenaStats fields the report reads.
type counters struct {
	steps, scans, memSteps, casRetries, wakeups int64
	wait                                        time.Duration
	created, poolHits                           int64
	asyncInFlight, asyncParked                  int64 // gauges
}

// minus gives the timed section's share of the cumulative counters. Object
// creations and pool hits keep their whole-pass totals, because keyed-sync
// creates every object in setup; the gauges keep their end-of-pass reading.
func (c counters) minus(b counters) counters {
	return counters{
		steps: c.steps - b.steps, scans: c.scans - b.scans,
		memSteps: c.memSteps - b.memSteps, casRetries: c.casRetries - b.casRetries,
		wakeups: c.wakeups - b.wakeups, wait: c.wait - b.wait,
		created: c.created, poolHits: c.poolHits,
		asyncInFlight: c.asyncInFlight, asyncParked: c.asyncParked,
	}
}

func arenaCounters(s sa.ArenaStats) counters {
	return counters{
		steps: s.Steps, scans: s.Scans,
		memSteps: s.MemSteps, casRetries: s.CASRetries,
		wakeups: s.Wakeups, wait: s.WaitTime,
		created: s.Created, poolHits: s.PoolHits,
		asyncInFlight: s.AsyncInFlight, asyncParked: s.AsyncParked,
	}
}

// sizes fixes how much work one pass does. full is what the benchmark
// runs; short keeps the benchmark's own tests quick.
type sizes struct {
	keys, depth              int // keyed-sync
	objects, prewarm, window int // history-deep
	rounds                   int // fanout-contended
	ladderKeys, ladderRounds int
	refKeys                  int // keyed-sync reference for history-deep's alloc check
}

var (
	full  = sizes{keys: 4096, depth: 100, objects: 4, prewarm: 5000, window: 8000, rounds: 700, ladderKeys: 256, ladderRounds: 20, refKeys: 256}
	short = sizes{keys: 64, depth: 20, objects: 2, prewarm: 1000, window: 100, rounds: 16, ladderKeys: 16, ladderRounds: 2, refKeys: 16}
)

var workloadNames = []string{"keyed-sync", "history-deep", "fanout-contended"}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "keyed-sync":
		return newKeyedSync(seed, sz.keys, sz.depth, sz.ladderKeys), nil
	case "history-deep":
		return newHistoryDeep(seed, sz), nil
	case "fanout-contended":
		return newFanout(seed, sz.rounds, sz.ladderRounds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// value draws a proposal. Values stay below 2^20, so a history entry is at
// most seven digits on every workload.
func value(rng *rand.Rand) int64 { return rng.Int64N(1 << 20) }

// sequence returns every key repeated depth times, shuffled: each key
// reaches exactly depth instances, in a seed-fixed order.
func sequence(rng *rand.Rand, keys, depth int) ([]int32, []int64) {
	seq := make([]int32, 0, keys*depth)
	for d := 0; d < depth; d++ {
		for key := 0; key < keys; key++ {
			seq = append(seq, int32(key))
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	vals := make([]int64, len(seq))
	for i := range vals {
		vals[i] = value(rng)
	}
	return seq, vals
}

// proposeAll runs the sync proposals of seq through hs, the client loop of
// both sync workloads: one goroutine, one call at a time.
func proposeAll(ctx context.Context, hs []*sa.Handle[int], depth []int32, seq []int32, vals []int64, log *passLog) {
	for j, key := range seq {
		depth[key]++
		v := vals[j]
		t0 := time.Now()
		d, err := hs[key].Propose(ctx, int(v))
		log.lat = append(log.lat, int64(time.Since(t0)))
		log.recs = append(log.recs, record{key: key, inst: depth[key], prop: v, dec: int64(d), err: err != nil})
	}
}

// keyedSync is the common serving path: one client goroutine proposing
// synchronously on kept handles over a few thousand arena keys, one
// proposer per key.
type keyedSync struct {
	names      []string
	seq        []int32
	vals       []int64
	depthEnd   int
	ladderKeys int

	ar    *sa.Arena[int]
	hs    []*sa.Handle[int]
	depth []int32
}

const (
	syncN = 4
	syncK = 2
)

func newKeyedSync(seed uint64, keys, depth, ladderKeys int) *keyedSync {
	rng := rand.New(rand.NewPCG(seed, 1))
	w := &keyedSync{names: make([]string, keys), depthEnd: depth, ladderKeys: min(ladderKeys, keys)}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("key-%05d", i)
	}
	w.seq, w.vals = sequence(rng, keys, depth)
	w.hs = make([]*sa.Handle[int], keys)
	w.depth = make([]int32, keys)
	return w
}

func (w *keyedSync) k() int     { return syncK }
func (w *keyedSync) batch() int { return 0 }

func (w *keyedSync) setup(log *passLog, tr *tracer) error {
	ar, err := sa.NewArena[int](syncN, syncK)
	if err != nil {
		return err
	}
	w.ar = ar
	clear(w.depth)
	for i, name := range w.names {
		t0 := time.Now()
		obj := ar.Object(name)
		t1 := time.Now()
		h, err := obj.Proc(0)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("claim %s: %w", name, err)
		}
		tr.add(spanObject, t1.Sub(t0))
		tr.add(spanClaim, t2.Sub(t1))
		w.hs[i] = h
	}
	return nil
}

func (w *keyedSync) run(log *passLog, tr *tracer) error {
	proposeAll(context.Background(), w.hs, w.depth, w.seq, w.vals, log)
	return nil
}

func (w *keyedSync) counters() counters { return arenaCounters(w.ar.Stats()) }

func (w *keyedSync) teardown(tr *tracer) error {
	for i, h := range w.hs {
		t0 := time.Now()
		if err := h.Release(); err != nil {
			return fmt.Errorf("release %s: %w", w.names[i], err)
		}
		if !w.ar.Evict(w.names[i]) {
			return fmt.Errorf("evict %s: refused", w.names[i])
		}
		tr.add(spanRetire, time.Since(t0))
	}
	w.ar = nil
	clear(w.hs)
	return nil
}

// historyDeep pre-warms a few repeated objects to thousands of instances,
// then adds a fixed window of instances on each: the cost of the history
// every tuple carries dominates.
type historyDeep struct {
	pre      [][]int64 // per object, the pre-warm proposals
	seq      []int32
	vals     []int64
	depthMid int

	hs    []*sa.Handle[int]
	depth []int32
}

func newHistoryDeep(seed uint64, sz sizes) *historyDeep {
	rng := rand.New(rand.NewPCG(seed, 2))
	w := &historyDeep{pre: make([][]int64, sz.objects), depthMid: sz.prewarm + sz.window/2}
	for o := range w.pre {
		w.pre[o] = make([]int64, sz.prewarm)
		for i := range w.pre[o] {
			w.pre[o][i] = value(rng)
		}
	}
	w.seq, w.vals = sequence(rng, sz.objects, sz.window)
	w.hs = make([]*sa.Handle[int], sz.objects)
	w.depth = make([]int32, sz.objects)
	return w
}

func (w *historyDeep) k() int     { return syncK }
func (w *historyDeep) batch() int { return 0 }

func (w *historyDeep) setup(log *passLog, tr *tracer) error {
	ctx := context.Background()
	for o := range w.hs {
		r, err := sa.NewRepeated[int](syncN, syncK)
		if err != nil {
			return err
		}
		h, err := r.Proc(0)
		if err != nil {
			return err
		}
		w.hs[o] = h
		for t, v := range w.pre[o] {
			d, err := h.Propose(ctx, int(v))
			log.recs = append(log.recs, record{key: int32(o), inst: int32(t + 1), prop: v, dec: int64(d), err: err != nil})
		}
		w.depth[o] = int32(len(w.pre[o]))
	}
	return nil
}

func (w *historyDeep) run(log *passLog, tr *tracer) error {
	proposeAll(context.Background(), w.hs, w.depth, w.seq, w.vals, log)
	return nil
}

func (w *historyDeep) counters() counters {
	var c counters
	for _, h := range w.hs {
		s := h.Stats()
		c.steps += s.Steps
		c.scans += s.Scans
		c.memSteps += s.MemSteps // one handle per object: no double count
		c.casRetries += s.CASRetries
		c.wakeups += s.Wakeups
		c.wait += s.WaitTime
	}
	return c
}

func (w *historyDeep) teardown(tr *tracer) error {
	clear(w.hs)
	return nil
}

// fanout runs rounds of one SubmitBatch of 64 keys × 4 contenders each
// (consensus, k = 1), drains each round through a CompletionQueue, then
// releases the handles and evicts the keys, so the next round's objects
// come from the arena's pool at depth 1.
type fanout struct {
	ops          [][]sa.BatchOp[int] // ops[0] is the warm-up round in setup
	ladderRounds int

	ar       *sa.Arena[int]
	q        *sa.CompletionQueue[int]
	ctx      context.Context
	cancel   context.CancelFunc
	baseline int // goroutines before setup
}

const (
	fanKeys       = 64
	fanContenders = 4
	fanK          = 1
)

func fanoutOptions() sa.ArenaOption {
	return sa.WithObjectOptions(
		sa.WithWaitStrategy(sa.WaitNotify),
		sa.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 16),
	)
}

func newFanout(seed uint64, rounds, ladderRounds int) *fanout {
	rng := rand.New(rand.NewPCG(seed, 3))
	names := make([]string, fanKeys)
	for i := range names {
		names[i] = fmt.Sprintf("fan-%02d", i)
	}
	w := &fanout{ops: make([][]sa.BatchOp[int], rounds+1), ladderRounds: min(ladderRounds, rounds)}
	for r := range w.ops {
		ops := make([]sa.BatchOp[int], 0, fanKeys*fanContenders)
		for _, name := range names {
			for c := 0; c < fanContenders; c++ {
				ops = append(ops, sa.BatchOp[int]{Key: name, Proc: c, Value: int(value(rng))})
			}
		}
		w.ops[r] = ops
	}
	return w
}

func (w *fanout) k() int     { return fanK }
func (w *fanout) batch() int { return fanKeys * fanContenders }

func (w *fanout) setup(log *passLog, tr *tracer) error {
	w.baseline = runtime.NumGoroutine()
	ar, err := sa.NewArena[int](fanContenders, fanK, fanoutOptions())
	if err != nil {
		return err
	}
	w.ar = ar
	w.q = sa.NewCompletionQueue[int]()
	w.ctx, w.cancel = context.WithTimeout(context.Background(), time.Minute)
	// The warm-up round starts the engine and fills the pool.
	return w.round(0, log, nil, false)
}

func (w *fanout) run(log *passLog, tr *tracer) error {
	for r := 1; r < len(w.ops); r++ {
		if err := w.round(r, log, tr, true); err != nil {
			return err
		}
	}
	return nil
}

// round submits, drains, checks and retires one round. Each round's keys
// are new objects, so the oracle sees them under round-unique key ids.
func (w *fanout) round(r int, log *passLog, tr *tracer, timed bool) error {
	ops := w.ops[r]
	base := int32(r * fanKeys)
	t0 := time.Now()
	b, err := w.ar.SubmitBatch(w.ctx, ops)
	if err != nil {
		return fmt.Errorf("round %d: submit: %w", r, err)
	}
	t1 := time.Now()
	if err := b.Register(w.q); err != nil {
		return fmt.Errorf("round %d: register: %w", r, err)
	}
	tr.add(spanSubmit, t1.Sub(t0))
	tr.add(spanRegister, time.Since(t1))
	for i := 0; i < b.Len(); i++ {
		tw := time.Now()
		c, err := w.q.Next(w.ctx)
		if err != nil {
			return fmt.Errorf("round %d: drain: %w", r, err)
		}
		now := time.Now()
		v, verr := c.Value()
		op := ops[c.Tag]
		log.recs = append(log.recs, record{key: base + int32(c.Tag/fanContenders), inst: 1, prop: int64(op.Value), dec: int64(v), err: verr != nil})
		if !timed {
			continue
		}
		log.lat = append(log.lat, int64(now.Sub(t0)))
		if tr != nil {
			tr.add(spanNextWait, now.Sub(tw))
			if i == 0 {
				tr.add(spanFirst, now.Sub(t0))
			}
			if i%32 == 31 {
				tr.parkedPeak = max(tr.parkedPeak, w.ar.Stats().AsyncParked)
				tr.goroutinesPeak = max(tr.goroutinesPeak, int64(runtime.NumGoroutine()-w.baseline))
			}
		}
	}
	if timed && tr != nil {
		tr.add(spanLast, time.Since(t0))
		// Read right after the last completion, with no retry: a future
		// that has resolved should no longer count as in flight.
		tr.inflightAfterDrain = append(tr.inflightAfterDrain, w.ar.Stats().AsyncInFlight)
	}
	for key := 0; key < fanKeys; key++ {
		tk := time.Now()
		for c := 0; c < fanContenders; c++ {
			h := b.Handle(key*fanContenders + c)
			if h == nil {
				return fmt.Errorf("round %d: op %d claimed no handle", r, key*fanContenders+c)
			}
			if err := h.Release(); err != nil {
				return fmt.Errorf("round %d: release: %w", r, err)
			}
		}
		if name := ops[key*fanContenders].Key; !w.ar.Evict(name) {
			return fmt.Errorf("round %d: evict %s: refused", r, name)
		}
		if timed {
			tr.add(spanRetire, time.Since(tk))
		}
	}
	return nil
}

func (w *fanout) counters() counters { return arenaCounters(w.ar.Stats()) }

func (w *fanout) teardown(tr *tracer) error {
	w.q.Close()
	w.cancel()
	w.ar, w.q = nil, nil
	return nil
}
