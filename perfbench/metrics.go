package main

import (
	"sort"

	"repro/internal/obs"
)

// endToEnd turns a run's measurements into the end-to-end metrics of the
// result line, and the end-to-end figures only printed. The result line
// carries the metrics steady enough on a shared 2-vCPU virtual machine to
// gate a change; the open-loop latencies and max_rate_ops_s move with the
// machine's other tenants by more than any bound a gate may use, so they are
// printed here and reported by the traced run as client.*. error_rate is 0
// on correct code and is carried by the result's attempted and failed
// counts; recovery_s and disk_bytes_per_user_byte exist only for a
// persistent store.
func (b *bench) endToEnd(m *measured, total tally) (e2e, info []metric) {
	med := func(f func(setupResult) float64) float64 {
		v := make([]float64, len(m.setups))
		for i, s := range m.setups {
			v[i] = f(s)
		}
		sort.Float64s(v)
		return v[len(v)/2]
	}
	c := m.closed.tally
	e2e = []metric{
		{"throughput_ops_s", "ops/s", m.closed.rate},
		{"ops_per_cpu_s", "ops/cpu-s", float64(c.ok) / m.closedCPU.Seconds()},
		{"hit_ratio", "fraction", ratio(float64(c.hits), c.gets)},
		{"setup_s", "s", med(func(s setupResult) float64 { return s.seconds })},
		{"mem_bytes_per_key", "B", med(func(s setupResult) float64 { return s.memPerKey })},
	}
	info = []metric{
		{"p50_us", "us", us(m.ref.p50)},
		{"p99_us", "us", us(m.ref.p99)},
		{"max_rate_ops_s", "ops/s", m.maxRate},
		{"error_rate", "fraction", errorRate(total)},
		{"p99_samples", "count", float64(len(m.ref.lat))},
		{"p99_windows", "count", float64(m.ref.windows)},
		{"p99_whole_step_us", "us", us(m.ref.p99All)},
	}
	if b.w.Persist {
		info = append(info,
			metric{"recovery_s", "s", m.recovery},
			metric{"disk_bytes_per_user_byte", "ratio", m.diskPerUserByte()})
	}
	return e2e, info
}

// diskPerUserByte is WAL growth over the key and column bytes of the puts
// acknowledged in the timed phases.
func (m *measured) diskPerUserByte() float64 {
	return ratio(float64(m.logGrowth), m.closed.tally.putBytes+m.ladder.putBytes)
}

// perLayer turns a run's measurements into the per-layer metrics. A metric
// that does not apply to the workload (the WAL of an in-memory store, the
// cache of a MYCSB workload) reads 0.
func (b *bench) perLayer(m *measured) []metric {
	c := m.closed.tally
	st0, st1 := m.st0, m.st1
	closedOps := c.ok
	l := m.layers
	walFlush := histDelta(m.histTimed[obs.HWALFlush], m.hist0[obs.HWALFlush])
	evict := histDelta(m.histClosed[obs.HEvict], m.hist0[obs.HEvict])
	ckpt := m.setups[len(m.setups)-1]
	rtts := m.closed.rtts
	sortInts(rtts)
	perKop := func(k string) float64 { return 1000 * ratio(float64(diff(st0, st1, k)), closedOps) }
	return []metric{
		{"client.p50_us", "us", us(m.ref.p50)},
		{"client.p99_us", "us", us(m.ref.p99)},
		{"client.max_rate_ops_s", "ops/s", m.maxRate},
		{"client.frame_rtt_us_p50", "us", us(quantile(rtts, 0.5))},
		{"wire.req_bytes_per_op", "B", ratio(float64(l.reqBytes), l.ops)},
		{"wire.resp_bytes_per_op", "B", ratio(float64(l.respBytes), l.ops)},
		{"wire.encode_ns_per_op", "ns", ratio(float64(l.encode), l.ops)},
		{"wire.decode_ns_per_op", "ns", ratio(float64(l.decode), l.ops)},
		{"server.exec_ns_per_op", "ns", ratio(float64(execNanos(st1)-execNanos(st0)), closedOps)},
		{"server.outside_exec_us_p50", "us", us(quantile(m.ref.rtt, 0.5)) - m.refExec/1e3},
		{"server.batched_get_share", "fraction", ratio(float64(diff(st0, st1, "batched_gets")), c.gets)},
		{"server.batched_put_share", "fraction", ratio(float64(diff(st0, st1, "batched_puts")), c.puts)},
		{"kvstore.get_batch_ns_per_key", "ns", ratio(float64(l.getBatch), l.gets)},
		{"kvstore.put_batch_ns_per_key", "ns", ratio(float64(l.putBatch), l.puts)},
		{"kvstore.open_s", "s", m.recovery},
		{"kvstore.replay_s", "s", m.phases[obs.RecPhaseReplay]},
		{"core.get_ns", "ns", ratio(float64(l.coreGet), l.gets)},
		{"core.put_ns", "ns", ratio(float64(l.corePut), l.puts)},
		{"core.retries_per_kop", "1/kop", perKop("root_retries") + perKop("local_retries")},
		{"value.bytes_per_key", "B", ratio(float64(m.setupStats["bytes_live"]), m.setupStats["keys"])},
		{"wal.flush_ms_p50", "ms", float64(walFlush.Quantile(0.5)) / 1e6},
		{"wal.flush_ms_p99", "ms", float64(walFlush.Quantile(0.99)) / 1e6},
		{"wal.flushes", "count", float64(walFlush.Count())},
		{"wal.bytes_per_put", "B", ratio(float64(m.logGrowth), c.puts+m.ladder.puts)},
		{"wal.disk_bytes_per_user_byte", "ratio", m.diskPerUserByte()},
		{"wal.parse_s", "s", m.phases[obs.RecPhaseLogParse]},
		{"checkpoint.load_s", "s", m.phases[obs.RecPhaseCheckpoint]},
		{"checkpoint.write_s", "s", ckpt.ckptSeconds},
		{"checkpoint.bytes", "B", float64(ckpt.ckptBytes)},
		{"cache.evictions_per_kop", "1/kop", perKop("evictions")},
		{"cache.ghost_hit_share", "fraction", ratio(float64(diff(st0, st1, "ghost_hits")), c.puts)},
		{"cache.admit_drops", "count", float64(diff(st0, st1, "admit_drops"))},
		{"cache.evict_pass_ms_p99", "ms", float64(evict.Quantile(0.99)) / 1e6},
		{"cache.overshoot_ratio", "ratio", ratio(float64(m.peakBytes), m.setupStats["max_bytes"])},
		{"runtime.allocs_per_op", "count", ratio(float64(m.ms1.Mallocs-m.ms0.Mallocs), closedOps)},
		{"runtime.gc_cycles", "count", float64(m.ms2.NumGC - m.ms0.NumGC)},
		{"loadgen.late_us_p99", "us", us(quantile(m.ref.late, 0.99))},
		{"trace.overhead_ratio", "ratio", m.overhead},
	}
}

// ratio is n/d, or 0 when d is 0 (a layer the workload does not use).
func ratio(n float64, d int64) float64 {
	if d == 0 {
		return 0
	}
	return n / float64(d)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
