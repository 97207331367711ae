package main

import (
	"fmt"
	"time"

	sa "setagreement"
	"setagreement/internal/core"
	"setagreement/internal/register"
	"setagreement/internal/shmem"
)

// rungs are the layer ladder's timings: the workload's inputs driven
// directly into the layers the public API hides. Rung 1 is the register
// backend under the default (atomic) snapshot, rung 2 the paper's step
// machine over that backend; rung 3 is the public Handle.Propose the
// workload itself times.
type rungs struct {
	updateNS, scanNS  float64 // rung 1
	proposeUS         float64 // rung 2
	appendNS          float64 // History.Append at the workload's depth
	objectUS, claimUS float64 // arena lookups hidden inside SubmitBatch (fanout-contended)
}

const (
	rungOps  = 100_000 // register operations per repetition
	rungReps = 5
	appendOp = 2000 // History.Append calls per repetition
)

var sinkHistory core.History

// registerRung times Update and Scan on an r-component lock-free snapshot,
// cycling through the given tuples as the step machine's writes would.
func registerRung(r int, tuples []shmem.Value) (updateNS, scanNS float64, err error) {
	mem, err := register.NewLockFree(shmem.Spec{Snaps: []int{r}})
	if err != nil {
		return 0, 0, err
	}
	var ups, scans []float64
	sink := 0
	for rep := 0; rep < rungReps; rep++ {
		t0 := time.Now()
		for i := 0; i < rungOps; i++ {
			mem.Update(0, i%r, tuples[i%len(tuples)])
		}
		ups = append(ups, float64(time.Since(t0))/rungOps)
		t0 = time.Now()
		for i := 0; i < rungOps; i++ {
			sink += len(mem.Scan(0))
		}
		scans = append(scans, float64(time.Since(t0))/rungOps)
	}
	if sink != rungOps*rungReps*r {
		return 0, 0, fmt.Errorf("register rung: scans returned %d components, want %d", sink, rungOps*rungReps*r)
	}
	return median(ups), median(scans), nil
}

// appendRung times History.Append on a history of the workload's depth.
func appendRung(his core.History, v int) float64 {
	var reps []float64
	for rep := 0; rep < rungReps; rep++ {
		t0 := time.Now()
		for i := 0; i < appendOp; i++ {
			sinkHistory = his.Append(v)
		}
		reps = append(reps, float64(time.Since(t0))/appendOp)
	}
	return median(reps)
}

// tuplesAt builds one tuple per process of an instance at history his.
func tuplesAt(n, t int, his core.History, vals []int64) []shmem.Value {
	out := make([]shmem.Value, n)
	for id := range out {
		out[id] = core.RTuple{Val: int(vals[id%len(vals)]), ID: id, T: t, His: his}
	}
	return out
}

// lowerRungs fills the register and History rungs for an algorithm whose
// processes sit at instance t over history his.
func lowerRungs(ru *rungs, alg *core.Repeated, t int, his core.History, vals []int64) error {
	var err error
	ru.updateNS, ru.scanNS, err = registerRung(alg.Components(), tuplesAt(alg.Params().N, t, his, vals))
	ru.appendNS = appendRung(his, int(vals[0]))
	return err
}

// coreReplay proposes seq on one core process per key, each over its own
// lock-free memory, timing every Propose. Keys at or above keys are skipped.
func coreReplay(alg *core.Repeated, keys int, depth []int32, seq []int32, vals []int64, log *passLog) (lat []int64, err error) {
	procs := make([]core.Process, keys)
	mems := make([]shmem.Mem, keys)
	for i := range procs {
		if mems[i], err = register.NewLockFree(alg.Spec()); err != nil {
			return nil, err
		}
		procs[i] = alg.NewProcess(0)
	}
	for j, key := range seq {
		if int(key) >= keys {
			continue
		}
		depth[key]++
		v := vals[j]
		t0 := time.Now()
		d := procs[key].Propose(mems[key], int(v))
		lat = append(lat, int64(time.Since(t0)))
		log.recs = append(log.recs, record{key: key, inst: depth[key], prop: v, dec: int64(d)})
	}
	return lat, nil
}

func syncAlgorithm() (*core.Repeated, error) {
	return core.NewRepeated(core.Params{N: syncN, M: 1, K: syncK})
}

// ladder replays the first ladderKeys keys' share of the workload's
// sequence at the core level, and times the register and History rungs at
// the keys' mid depth.
func (w *keyedSync) ladder(log *passLog) (rungs, error) {
	alg, err := syncAlgorithm()
	if err != nil {
		return rungs{}, err
	}
	lat, err := coreReplay(alg, w.ladderKeys, make([]int32, w.ladderKeys), w.seq, w.vals, log)
	if err != nil {
		return rungs{}, err
	}
	ru := rungs{proposeUS: medianInt(lat) / 1e3}
	mid := w.depthEnd / 2
	return ru, lowerRungs(&ru, alg, mid+1, core.HistoryOf(ints(w.vals[:mid])...), w.vals)
}

// ladder pre-warms one core process to the workload's depth with the first
// object's inputs, then replays that object's window.
func (w *historyDeep) ladder(log *passLog) (rungs, error) {
	alg, err := syncAlgorithm()
	if err != nil {
		return rungs{}, err
	}
	mem, err := register.NewLockFree(alg.Spec())
	if err != nil {
		return rungs{}, err
	}
	proc := alg.NewProcess(0)
	decided := make([]int, 0, w.depthMid)
	for t, v := range w.pre[0] {
		d := proc.Propose(mem, int(v))
		decided = append(decided, d)
		log.recs = append(log.recs, record{key: 0, inst: int32(t + 1), prop: v, dec: int64(d)})
	}
	inst := int32(len(w.pre[0]))
	var lat []int64
	for j, key := range w.seq {
		if key != 0 {
			continue
		}
		inst++
		v := w.vals[j]
		t0 := time.Now()
		d := proc.Propose(mem, int(v))
		lat = append(lat, int64(time.Since(t0)))
		decided = append(decided, d)
		log.recs = append(log.recs, record{key: 0, inst: inst, prop: v, dec: int64(d)})
	}
	ru := rungs{proposeUS: medianInt(lat) / 1e3}
	mid := min(w.depthMid, len(decided))
	return ru, lowerRungs(&ru, alg, mid+1, core.HistoryOf(decided[:mid]...), w.vals)
}

// ladder replays ladderRounds rounds at the core level — each key's four
// contenders one after another on a fresh memory — and times the arena
// lookups and claims SubmitBatch makes internally, on a separate arena of
// the same mold.
func (w *fanout) ladder(log *passLog) (rungs, error) {
	alg, err := core.NewRepeated(core.Params{N: fanContenders, M: 1, K: fanK})
	if err != nil {
		return rungs{}, err
	}
	var lat []int64
	for r := 1; r <= w.ladderRounds; r++ {
		ops := w.ops[r]
		for key := 0; key < fanKeys; key++ {
			mem, err := register.NewLockFree(alg.Spec())
			if err != nil {
				return rungs{}, err
			}
			for c := 0; c < fanContenders; c++ {
				op := ops[key*fanContenders+c]
				proc := alg.NewProcess(op.Proc)
				t0 := time.Now()
				d := proc.Propose(mem, op.Value)
				lat = append(lat, int64(time.Since(t0)))
				log.recs = append(log.recs, record{key: int32(r*fanKeys + key), inst: 1, prop: int64(op.Value), dec: int64(d)})
			}
		}
	}
	ru := rungs{proposeUS: medianInt(lat) / 1e3}
	if err := w.arenaRung(&ru); err != nil {
		return rungs{}, err
	}
	vals := make([]int64, fanContenders)
	for c := range vals {
		vals[c] = int64(w.ops[1][c].Value)
	}
	return ru, lowerRungs(&ru, alg, 1, "", vals)
}

func (w *fanout) arenaRung(ru *rungs) error {
	ar, err := sa.NewArena[int](fanContenders, fanK, fanoutOptions())
	if err != nil {
		return err
	}
	var objNS, claimNS []int64
	hs := make([]*sa.Handle[int], fanContenders)
	for r := 1; r <= w.ladderRounds; r++ {
		ops := w.ops[r]
		for key := 0; key < fanKeys; key++ {
			name := ops[key*fanContenders].Key
			t0 := time.Now()
			obj := ar.Object(name)
			objNS = append(objNS, int64(time.Since(t0)))
			for c := range hs {
				t0 = time.Now()
				h, err := obj.Proc(c)
				claimNS = append(claimNS, int64(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("arena rung: claim %s/%d: %w", name, c, err)
				}
				hs[c] = h
			}
			for _, h := range hs {
				if err := h.Release(); err != nil {
					return err
				}
			}
			if !ar.Evict(name) {
				return fmt.Errorf("arena rung: evict %s: refused", name)
			}
		}
	}
	ru.objectUS, ru.claimUS = medianInt(objNS)/1e3, medianInt(claimNS)/1e3
	return nil
}

func ints(vs []int64) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
