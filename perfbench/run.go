package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

// measured is everything one run measured, before it becomes metrics.
type measured struct {
	setups     []setupResult
	setupStats map[string]int64 // Stats op after the last set-up

	closed   closedResult
	st0, st1 map[string]int64 // Stats op around the closed loop
	// MemStats before the closed loop, after it, and after the open loop.
	ms0, ms1, ms2                runtime.MemStats
	hist0, histClosed, histTimed histSet       // the same points, store histograms
	peakBytes                    int64         // traced cache runs: peak bytes_live
	closedCPU                    time.Duration // process CPU time over the closed loop

	ref     stepResult // the reference (lowest) ladder step
	refExec float64    // server exec ns per op during the reference step
	maxRate float64
	ladder  tally

	logGrowth int64 // WAL bytes written during the timed phases
	recovery  float64
	phases    map[uint64]float64 // recovery phase seconds by obs.RecPhase* code

	overhead float64 // untraced / traced closed-loop throughput
	layers   layerResult
}

// run executes the workload: inputs, set-up, the closed loop, the open-loop
// ladder, for a persistent store the restart and read-back, the
// tracing-overhead loops, and when traced the layer pass and the span dump.
// Progress lines go to log.
func (b *bench) run(log io.Writer) (*report, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var tr *tracer
	if b.trace {
		tr = newTracer(1 << 20)
	}
	sb := tr.buf()
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d\n",
		b.name, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0))

	rep := &report{}
	var m measured
	st := &runState{}
	defer st.close()
	if err := b.setUp(log, sb, st, &m); err != nil {
		return nil, err
	}
	var twin *core.Tree
	var twinV *value.Value
	if b.trace {
		twin, twinV = buildTwin(b.in.keys)
	}
	if err := b.timed(log, tr, st, &m, rep); err != nil {
		return nil, err
	}
	if b.w.Persist {
		if err := b.restartPhase(log, sb, st, &m, rep); err != nil {
			return nil, err
		}
	}
	m.overhead = b.tracingOverhead(st.sv, rep)
	fmt.Fprintf(log, "tracing overhead: untraced/traced closed-loop throughput = %.3f\n", m.overhead)
	if b.trace {
		var err error
		if m.layers, err = b.layerPass(st.sv.store, twin, twinV, b.cfg.LayerFrames, sb); err != nil {
			return nil, err
		}
		rep.tally.add(b.layerTally)
	}
	rep.e2e, rep.info = b.endToEnd(&m, rep.tally)
	rep.layer = b.perLayer(&m)
	if b.trace {
		if err := b.writeTrace(log, tr, m.overhead); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// prepare generates the inputs and the per-connection checkers.
func (b *bench) prepare() error {
	cfg, w := b.cfg, b.w
	in, err := genInputs(w, b.seed, cfg.Connections, cfg.PoolOps)
	if err != nil {
		return err
	}
	if w.Kind == "cache" {
		warm, err := genInputs(w, b.seed+7919, cfg.Connections, max(cfg.PoolOps, w.WarmOps))
		if err != nil {
			return err
		}
		in.warm = warm.streams
	}
	b.in = in
	b.checkers = make([]*checker, cfg.Connections)
	for c := range b.checkers {
		b.checkers[c] = &checker{w: w, keys: in.keys}
		if w.Persist {
			b.checkers[c].model = newModel(w.Records, w.Columns)
		}
	}
	return nil
}

// runState is the served store a run is working on and its directory.
type runState struct {
	sv  *served
	dir string
}

// close stops the served store and deletes its directory.
func (st *runState) close() {
	if st.sv != nil {
		st.sv.stop()
		st.sv.store.Close()
		st.sv = nil
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
		st.dir = ""
	}
}

// setUp sets the store up SetupReps times (once when traced), each in a
// fresh directory; setup_s and mem_bytes_per_key are the medians. The last
// set-up's store runs the timed phases.
func (b *bench) setUp(log io.Writer, sb *spanBuf, st *runState, m *measured) error {
	reps := b.cfg.SetupReps
	if b.trace {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		st.close()
		dir, err := runDir(b.out, b.name)
		if err != nil {
			return err
		}
		st.dir = dir
		sv, res, err := b.setup(dir, sb)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st.sv = sv
		m.setups = append(m.setups, res)
		fmt.Fprintf(log, "set-up %d: %.3fs, %d keys, %.1f B/key\n", r+1, res.seconds, res.keys, res.memPerKey)
	}
	for _, ck := range b.checkers {
		ck.misses = ck.misses[:0]
	}
	var err error
	m.setupStats, err = stats(st.sv.conns[0])
	return err
}

// timed runs the two timed phases: the closed loop, then the open-loop
// ladder, every step ascending.
func (b *bench) timed(log io.Writer, tr *tracer, st *runState, m *measured, rep *report) error {
	sv, w, cfg := st.sv, b.w, b.cfg
	reg := sv.store.Obs()
	m.hist0 = snapHists(reg)
	logs0 := logBytes(st.dir)
	runtime.ReadMemStats(&m.ms0)
	var peak *peakSampler
	if b.trace && w.Kind == "cache" {
		peak = startPeakSampler(sv.store)
	}
	var err error
	if m.st0, err = stats(sv.conns[0]); err != nil {
		return err
	}
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	m.closed = b.closedLoop(sv, b.in.streams, seconds(cfg.ClosedShare*b.seconds), 0, tr)
	cpu1, err := processCPU()
	if err != nil {
		return err
	}
	m.closedCPU = cpu1 - cpu0
	if m.st1, err = stats(sv.conns[0]); err != nil {
		return err
	}
	runtime.ReadMemStats(&m.ms1)
	m.peakBytes = peak.stop()
	m.histClosed = snapHists(reg)
	c := m.closed.tally
	rep.tally.add(c)
	fmt.Fprintf(log, "closed loop: %d ops in %.3fs, median %v rate %.0f ops/s, %d failed\n",
		c.ok, m.closed.elapsed.Seconds(), rateBucket, m.closed.rate, c.failed)

	refDur := seconds(cfg.ReferenceShare * b.seconds)
	stepDur := refDur
	if n := len(w.LadderOpsS) - 1; n > 0 {
		stepDur = seconds((1 - cfg.ClosedShare - cfg.ReferenceShare) * b.seconds / float64(n))
	}
	for i, rate := range w.LadderOpsS {
		d := stepDur
		var before map[string]int64
		if i == 0 {
			d = refDur
			if before, err = stats(sv.conns[0]); err != nil {
				return err
			}
		}
		s := b.openStep(sv, rate, d)
		m.ladder.add(s.tally)
		fmt.Fprintf(log, "ladder %9.0f ops/s: n %7d windows %4d p50 %8.1fus p99 %8.1fus p99_all %8.1fus late_p99 %7.1fus last_p50 %7.1fus overrun %7.1fus failed %d pass %v\n",
			rate, len(s.lat), s.windows, us(s.p50), us(s.p99), us(s.p99All), us(quantile(s.late, 0.99)),
			us(s.lastP50), float64(s.overrun)/1e3, s.tally.failed, s.pass)
		if i == 0 {
			after, err := stats(sv.conns[0])
			if err != nil {
				return err
			}
			m.ref = s
			if s.tally.ok > 0 {
				m.refExec = float64(execNanos(after)-execNanos(before)) / float64(s.tally.ok)
			}
		}
		if s.pass {
			m.maxRate = rate
		}
	}
	rep.tally.add(m.ladder)
	runtime.ReadMemStats(&m.ms2)
	m.histTimed = snapHists(reg)
	if w.Persist {
		if err := sv.store.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		m.logGrowth = logBytes(st.dir) - logs0
	}
	return nil
}

// restartPhase checkpoints, sends a fixed tail of RestartTailOps stream ops
// per connection, closes the store, reopens its directory, and reads every
// record back; the reopened store serves what follows. The restart so
// replays a log of the same size in every run on top of a checkpoint;
// replaying the timed phases' whole log would hold millions of records in
// memory at once.
func (b *bench) restartPhase(log io.Writer, sb *spanBuf, st *runState, m *measured, rep *report) error {
	if _, _, err := st.sv.store.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tail := b.closedLoop(st.sv, b.in.streams, 0, b.w.RestartTailOps, nil)
	rep.tally.add(tail.tally)
	st.sv.stop()
	err := st.sv.store.Close()
	st.sv = nil
	if err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	var rb tally
	st.sv, m.recovery, m.phases, rb, err = b.restart(st.dir, sb)
	if err != nil {
		return err
	}
	rep.tally.add(rb)
	fmt.Fprintf(log, "restart: recovery %.3fs, read back %d keys, %d wrong\n", m.recovery, rb.attempted, rb.failed)
	return nil
}

// tracingOverhead runs closed loops untraced, traced, traced, untraced, so
// a drift over the four cancels out, and returns untraced over traced
// throughput.
func (b *bench) tracingOverhead(sv *served, rep *report) float64 {
	d := seconds(b.cfg.OverheadSeconds)
	var plain, traced float64
	for _, on := range []bool{false, true, true, false} {
		var t *tracer
		if on {
			t = newTracer(1 << 20)
		}
		r := b.closedLoop(sv, b.in.streams, d, 0, t)
		rep.tally.add(r.tally)
		if on {
			traced += r.rate
		} else {
			plain += r.rate
		}
	}
	return plain / traced
}

// writeTrace prints the self-time table and writes it and the span dump
// under out/traces.
func (b *bench) writeTrace(log io.Writer, tr *tracer, overhead float64) error {
	spans, dropped := tr.spans()
	rows := selfTimes(spans)
	writeSelfTable(log, b.name, rows)
	dir := filepath.Join(b.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	if err := dumpSpans(base+".spans.jsonl", spans); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	writeSelfTable(f, b.name, rows)
	fmt.Fprintf(f, "tracing overhead (untraced/traced closed-loop throughput): %.3f\n", overhead)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(log, "span dump: %s.spans.jsonl (%d spans, %d dropped)\n", base, len(spans), dropped)
	return nil
}

// processCPU is the user plus system CPU time the process has used. Server
// and client share the process, so it is the whole system's CPU cost; time
// the machine's hypervisor gives to other tenants is not in it.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// seconds converts a float number of seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
