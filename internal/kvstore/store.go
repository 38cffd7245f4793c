// Package kvstore assembles Masstree the system (§3, §5): the core tree,
// multi-column values, per-worker logging with group commit, periodic
// checkpoints, recovery, and epoch-scheduled maintenance.
//
// The store supports the paper's four operations — get(k), put(k, v),
// remove(k), and getrange(k, n) — each with an optional list of column
// numbers. Multi-column puts are atomic: a concurrent get sees all or none
// of a put's column modifications (§4.7).
//
// Version numbers and timestamps: the store draws both from per-worker
// loosely synchronized clocks (§5.1, see shardedClock), assigned under the
// owning border node's lock and lifted past the replaced value's version
// (and past every remove, for fresh inserts). Sequential updates to a value
// therefore obtain distinct increasing versions, log records are totally
// ordered per key (even across remove/re-insert), and recovery can apply
// each key's updates in increasing version order after cutting off at
// t = min over logs of the log's maximum durable timestamp (§5) — all
// without the global clock cache line every writer used to bounce.
//
// Every write — Put, PutTTL, Touch, CasPut, a backend install, a batch —
// is a descriptor run through one write path (write.go), which mirrors the
// read path's batching and allocation discipline: one batched tree pass in
// key order with one border-node lock acquisition per run of co-located
// keys (§4.8), exactly one packed value allocation per put
// (value.BuildTTLAt), and one chained append encoding the batch's records
// directly into the worker's double-buffered log (§5), so the steady-state
// put pipeline allocates only the value itself.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Config configures a Store.
type Config struct {
	// Dir is the persistence directory for logs and checkpoints. Empty
	// disables persistence entirely (a pure in-memory store).
	Dir string
	// Workers is the number of per-worker log files (the paper gives each
	// query thread its own log). Defaults to 1.
	Workers int
	// FlushInterval bounds how long a logged update may stay unforced
	// (200 ms in the paper). Defaults to wal.DefaultFlushInterval.
	FlushInterval time.Duration
	// SyncWrites forces logs to storage on each flush (fsync).
	SyncWrites bool
	// MaintainEvery is the epoch-advance and tree-maintenance period.
	// Defaults to 50 ms; 0 uses the default, negative disables.
	MaintainEvery time.Duration
	// CheckpointParts is how many concurrent part writers a checkpoint
	// uses — the key space is partitioned into that many disjoint ranges,
	// written as one part file each (§5: checkpoints are taken by multiple
	// threads over subranges), and recovery loads the parts concurrently.
	// 0 defaults to GOMAXPROCS; 1 writes a single part.
	CheckpointParts int
	// FS is the filesystem seam for logs and checkpoints. Nil means the
	// real filesystem; tests inject vfs.MemFS/vfs.Fault to model crashes
	// at every write/fsync/rename boundary.
	FS vfs.FS
	// MaxBytes switches the store into cache mode: accounted live bytes
	// (packed value sizes) are kept at or below this bound by the
	// S3-FIFO-inspired eviction policy running from the maintenance loop.
	// 0 disables eviction (the store only grows, as before). Evictions are
	// clean drops — no WAL remove is written — so after a crash evicted
	// keys may replay back; recovery then re-enforces the bound. See
	// internal/cache and the package comment's cache-mode section.
	MaxBytes int
	// Backend, when non-nil, arms the read-through tier: Session.GetOrLoad
	// resolves misses by loading from it (one flight per key, concurrent
	// misses coalesce), and Remove/eviction feed the write-behind queue.
	// Wrap it with backend.Wrap to get timeouts, retries, and the circuit
	// breaker; the store calls whatever it is given.
	Backend backend.Backend
	// NegativeTTL is how long an authoritative backend miss is remembered,
	// so absent hot keys cannot herd the backend either. 0 defaults to 1s;
	// negative disables negative caching.
	NegativeTTL time.Duration
	// MaxStale bounds stale-if-error: when the backend cannot answer,
	// GetOrLoad may serve a resident value whose TTL lapsed no more than
	// this long ago, flagged stale. 0 disables (errors propagate).
	MaxStale time.Duration
	// WriteBehind is the spill queue's depth in keys; eviction's clean
	// drops and Remove's tombstones queue here and drain to the Backend
	// asynchronously, coalescing per key, dropping the oldest entry (and
	// counting the drop) when full. 0 disables write-behind.
	WriteBehind int
	// NoObs disables the observability subsystem (the per-worker latency
	// histograms and the flight recorder, see internal/obs). Instrumentation
	// is on by default: its record paths are allocation-free and wait-free,
	// and the alloc pins and the obs bench experiment both run with it
	// armed. Turning it off exists for measuring its own overhead.
	NoObs bool
}

// Pair is one key plus requested columns, returned by GetRange.
type Pair struct {
	Key  []byte
	Cols [][]byte
}

// Store is a persistent in-memory key-value store backed by a Masstree.
// All methods are safe for concurrent use.
type Store struct {
	cfg   Config
	fsys  vfs.FS
	tree  *core.Tree
	clock *shardedClock
	logs  *wal.Set // nil when persistence is disabled
	mgr   epoch.Manager
	cache *cache.Cache

	// loader/wb are the read-through and write-behind tiers; both nil when
	// no Backend is configured (wb additionally requires WriteBehind > 0).
	loader *loader
	wb     *writeBehind

	// ttlUsed arms the maintenance loop's expiry sweep the first time any
	// value carries an expiry (PutTTL/Touch, or a recovered TTL record), so
	// TTL-free stores never pay for tree sweeps.
	ttlUsed atomic.Bool
	// evictH is the maintenance loop's epoch handle: evictions and expiry
	// sweeps run inside Enter/Exit so deferred structural reclamation waits
	// for them like for any session's operation.
	evictH *epoch.Handle
	// sweepCursor/sweepKeys are the incremental expiry sweep's position and
	// reusable victim buffer; owned by the maintenance context.
	sweepCursor []byte
	sweepKeys   [][]byte
	sweepArena  []byte
	sweepBuf    []byte

	// workerMu[w] serializes worker w's version-draw-to-log-append window
	// (only taken when logging is enabled). Sessions sharing a worker id
	// would otherwise interleave draw and append, letting a key's records
	// reach the shared log out of timestamp order — after a crash the log's
	// maximum durable timestamp would then claim a lost record as durable
	// and replay a later delta onto an earlier state. With one session per
	// worker (the paper's arrangement) the mutex is uncontended and stays
	// on its own cache line. It also gates timestamp marks: the maintenance
	// loop marks a log only when it can TryLock the worker, proving no
	// drawn-but-unappended version exists below the mark.
	workerMu []paddedMutex
	// spares[w] is worker w's Store-level write scratch; see spareScratch.
	spares []spareScratch

	ckptMu sync.Mutex // one checkpoint at a time

	// obs is the observability registry: latency histograms for every
	// internal stage plus the flight recorder. Nil when Config.NoObs — and
	// every record site tolerates that, so "off" costs one nil check.
	obs *obs.Registry

	// recovered is what Open's recovery observed; immutable afterwards.
	recovered RecoveryStats

	stop chan struct{}
	wg   sync.WaitGroup
}

// RecoveryStats reports what Open's recovery observed. Both counts are
// zero on a clean restart; nonzero values mean log state vanished between
// the crash and the reopen (operator intervention, device loss) and
// recovery detected it instead of serving a mis-merged value.
type RecoveryStats struct {
	// BrokenChains counts keys whose replay chain had a broken prev link —
	// a partial-column record whose base was never rebuilt because a
	// predecessor's log vanished. Each such key was rolled back to its
	// last anchored prefix rather than mis-merged.
	BrokenChains int64
	// MissingLogs counts log files the directory's logset expected but
	// recovery could not find (wal.RecoveryResult.MissingLogs).
	MissingLogs int64
}

// RecoveryStats reports what the last Open's recovery observed.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovered }

// Obs returns the store's observability registry — latency histograms and
// the flight recorder. Nil when Config.NoObs; obs instruments are nil-safe,
// so callers may chain without checking (s.Obs().Hist(...).Record(...)).
func (s *Store) Obs() *obs.Registry { return s.obs }

// obsRecoveryPhase records one recovery phase: its duration lands in the
// recovery histogram and as a flight-recorder event, and the phase clock
// advances so the next phase measures only itself.
func (s *Store) obsRecoveryPhase(phase uint64, start *time.Time) {
	d := time.Since(*start)
	*start = time.Now()
	s.obs.Hist(obs.HRecovery).Record(0, d)
	s.obs.Recorder().Record(0, obs.EvRecoveryPhase, phase, uint64(d))
}

// Open creates a store, recovering from the newest valid checkpoint plus
// logs when cfg.Dir holds a previous incarnation's state.
func Open(cfg Config) (*Store, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaintainEvery == 0 {
		cfg.MaintainEvery = 50 * time.Millisecond
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = time.Second
	}
	s := &Store{
		cfg:      cfg,
		fsys:     cfg.FS,
		tree:     core.New(),
		clock:    newShardedClock(cfg.Workers),
		cache:    cache.New(cfg.Workers, cfg.MaxBytes),
		workerMu: make([]paddedMutex, cfg.Workers),
		spares:   make([]spareScratch, cfg.Workers),
		stop:     make(chan struct{}),
	}
	if s.fsys == nil {
		s.fsys = vfs.OS{}
	}
	if !cfg.NoObs {
		// Built before recovery so the recovery phases are themselves timed
		// and replay's chain rollbacks land in the flight recorder.
		s.obs = obs.NewRegistry(cfg.Workers)
	}
	if cfg.Dir != "" {
		if err := s.fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.evictH = s.mgr.Register()
	if cfg.Backend != nil {
		s.loader = newLoader(s, cfg.Backend)
		if cfg.WriteBehind > 0 {
			s.wb = newWriteBehind(cfg.Backend, cfg.WriteBehind)
		}
	}
	// Cache mode re-enforces the bound over recovered state: replay may have
	// brought back evicted keys (their drops were never logged) and the
	// accounted total starts from whatever survived, so seed the policy with
	// every recovered key and evict straight back down to the budget before
	// serving.
	s.seedCache()
	if cfg.MaintainEvery > 0 {
		s.wg.Add(1)
		go s.maintainLoop()
	}
	return s, nil
}

// seedCache charges the accounting shards for every key already in the tree
// (recovered state) and, in cache mode, admits the keys to the eviction
// policy and enforces the byte bound synchronously. Runs before any
// concurrent access exists.
func (s *Store) seedCache() {
	var total int64
	buf := make([]byte, 0, 64)
	//lint:allow epochguard seedCache runs during Open, before any concurrent access or reclamation exists
	s.tree.ScanInto(nil, buf, func(k []byte, v *value.Value) bool {
		total += int64(v.Size())
		if v.ExpiresAt() != 0 {
			s.ttlUsed.Store(true)
		}
		s.cache.Seed(k, v.Size())
		return true
	})
	if total != 0 {
		s.cache.Account(-1, total)
	}
	if s.cache.EvictionEnabled() {
		s.cacheMaintain()
	}
}

// recover loads the latest valid checkpoint — all parts concurrently, each
// batch-inserted so runs of adjacent keys share one border-node lock
// acquisition — then replays the logs beyond it in parallel, restores the
// clock, and opens a fresh log generation (never appending to a file that
// may end in a torn record).
func (s *Store) recover() error {
	phase := time.Now()
	var maxVersion atomic.Uint64
	ckptTS, fromManifest, err := s.loadCheckpoint(&maxVersion)
	if err != nil && err != checkpoint.ErrNone {
		return fmt.Errorf("kvstore: loading checkpoint: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseCheckpoint, &phase)
	// Only manifest-format checkpoints were written under CheckpointN's
	// synchronize-and-drain protocol, the precondition for treating every
	// record at or below the checkpoint timestamp as fully reflected in
	// it. For those, records <= ckptTS are excluded from replay AND from
	// the cutoff computation: replaying one could resurrect a key whose
	// remove only the checkpoint remembers (absence cannot version-guard),
	// and letting a crash-resurrected old-generation log constrain the
	// cutoff with pre-checkpoint timestamps would discard the durable
	// post-checkpoint tail of busier logs. A legacy single-file checkpoint
	// (an earlier incarnation's data) gives no such guarantee — a lagging
	// clock shard could have issued ts <= ckptTS for a write the fuzzy
	// scan missed — so for those everything replays under the version
	// guard, as before.
	replayCut := uint64(0)
	if fromManifest {
		replayCut = ckptTS
	}
	res, err := wal.RecoverDirAboveFS(s.fsys, s.cfg.Dir, replayCut)
	if err != nil {
		return fmt.Errorf("kvstore: scanning logs: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseLogParse, &phase)
	// Chain-validated replay: each key's records arrive in increasing TS
	// order, and a linked (v2, non-anchor) record merges only when its prev
	// link matches the state replay rebuilt. A mismatch means the record's
	// base was never rebuilt — a predecessor's log vanished wholesale, so
	// the vanished log constrained neither the cutoff nor anything else —
	// and merging anyway would fabricate a column mix no execution
	// produced. The key stays at its last anchored prefix instead (refusal
	// IS the rollback: records replay in version order, so whatever the
	// key holds when a link breaks is the longest prefix the surviving
	// logs can vouch for), and the rollback is counted in BrokenChains.
	// Once a link breaks, later linked records cannot spuriously match the
	// stale state (versions strictly increase past it); only an anchor —
	// an insert, or a column-complete prev==0 record — resumes the key.
	// Values are rebuilt with the record's originating worker as their
	// worker tag, so cross-log handoff detection stays exact after a
	// restart.
	var brokenChains atomic.Int64
	res.ReplayByKey(max(4, runtime.GOMAXPROCS(0)), func(recs []wal.Record) {
		broken := false
		for _, r := range recs {
			switch r.Op {
			case wal.OpPut, wal.OpPutTTL, wal.OpInsert, wal.OpInsertTTL:
				s.tree.Update(r.Key, func(old *value.Value) *value.Value {
					if old != nil && old.Version() >= r.TS {
						return old // already reflected (e.g. via the checkpoint)
					}
					if r.Op.IsInsert() || (!r.Unlinked && r.Prev == 0) {
						// Chain anchor: executed against an absent (or
						// lazily-expired) base, or carrying every column of
						// the value it published (handoff anchors, Touch).
						// Replace rather than merge, so stale records of a
						// cleanly-dropped (evicted/swept) predecessor cannot
						// fold their columns into the recovered value.
						return value.BuildTTLAt(nil, r.Puts, r.TS, uint32(r.Worker), r.Expiry)
					}
					if !r.Unlinked && old.Version() != r.Prev {
						broken = true
						return old // broken chain: hold the anchored prefix
					}
					return value.BuildTTLAt(old, r.Puts, r.TS, uint32(r.Worker), r.Expiry)
				})
			case wal.OpRemove:
				if v, ok := s.tree.Get(r.Key); ok && v.Version() < r.TS {
					s.tree.Remove(r.Key)
				}
			}
		}
		if broken {
			brokenChains.Add(1)
			s.obs.Recorder().Record(int(recs[0].Worker), obs.EvChainBreak, obs.KeyHash(recs[0].Key), 0)
		}
	})
	s.obsRecoveryPhase(obs.RecPhaseReplay, &phase)
	s.recovered.BrokenChains = brokenChains.Load()
	s.recovered.MissingLogs = int64(res.MissingLogs)
	if res.MissingLogs > 0 {
		s.obs.Recorder().Record(0, obs.EvLogMissing, uint64(res.MissingLogs), 0)
	}
	// Seed the clocks past everything the previous incarnation could have
	// issued: replayed log timestamps, checkpointed value versions, and the
	// checkpoint's own start timestamp. The last matters when removes (whose
	// timestamps live in no value) lifted the clock before a checkpoint
	// reclaimed the logs that recorded them — without it, a later checkpoint
	// could carry a lower start timestamp than a surviving older one and
	// LoadLatest would restore the stale state.
	clock := res.MaxTS
	if mv := maxVersion.Load(); mv > clock {
		clock = mv
	}
	if ckptTS > clock {
		clock = ckptTS
	}
	s.clock.seed(clock)
	logs, err := wal.OpenSetFS(s.fsys, s.cfg.Dir, s.cfg.Workers, res.MaxGen+1, s.cfg.SyncWrites, s.cfg.FlushInterval)
	if err != nil {
		return err
	}
	logs.Observe(s.obs.Hist(obs.HWALFlush), s.obs.Recorder())
	s.logs = logs
	return nil
}

// loadCheckpoint finds the newest fully valid checkpoint and loads its
// parts concurrently, one goroutine per part. Parts cover disjoint key
// ranges, so the inserts never contend on a key; the version guard keeps
// the load idempotent against anything else in the tree. fromManifest
// reports whether the loaded checkpoint was the manifest (multi-part)
// format, i.e. written by CheckpointN's synchronize-and-drain protocol.
func (s *Store) loadCheckpoint(maxVersion *atomic.Uint64) (ts uint64, fromManifest bool, err error) {
	infos, err := checkpoint.ListFS(s.fsys, s.cfg.Dir)
	if err != nil {
		return 0, false, err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		ts, parts, err := checkpoint.Read(s.fsys, infos[i])
		if err != nil {
			if errors.Is(err, checkpoint.ErrCorrupt) {
				continue // torn or damaged: fall back to an older checkpoint
			}
			return 0, false, err
		}
		var wg sync.WaitGroup
		for _, es := range parts {
			wg.Add(1)
			go func(es []checkpoint.Entry) {
				defer wg.Done()
				s.insertCheckpointPart(es, maxVersion)
			}(es)
		}
		wg.Wait()
		return ts, infos[i].Parts != 0, nil
	}
	return 0, false, checkpoint.ErrNone
}

// insertCheckpointPart inserts one part's entries in batched chunks:
// entries arrive in key order, so PutBatchInto applies whole runs of
// adjacent keys under a single border-node lock acquisition instead of one
// full descent per key.
func (s *Store) insertCheckpointPart(es []checkpoint.Entry, maxVersion *atomic.Uint64) {
	const chunk = 256
	var sc core.BatchScratch
	keys := make([][]byte, 0, chunk)
	localMax := uint64(0)
	for base := 0; base < len(es); base += chunk {
		end := min(base+chunk, len(es))
		keys = keys[:0]
		for _, e := range es[base:end] {
			keys = append(keys, e.Key)
		}
		s.tree.PutBatchInto(keys, &sc, func(i int, old *value.Value) *value.Value {
			e := es[base+i]
			if v := e.Value.Version(); v > localMax {
				localMax = v
			}
			if old != nil && old.Version() >= e.Value.Version() {
				return nil // already reflected; decline
			}
			return e.Value
		})
	}
	for {
		cur := maxVersion.Load()
		if localMax <= cur || maxVersion.CompareAndSwap(cur, localMax) {
			return
		}
	}
}

func (s *Store) maintainLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.MaintainEvery)
	defer t.Stop()
	lastMark := uint64(0)
	for {
		select {
		case <-s.cache.Wake():
			// A worker's accounting probe saw the byte budget exceeded:
			// evict now instead of waiting out the tick, bounding overshoot
			// to roughly one eviction batch. (Wake() is nil — and this case
			// inert — when eviction is disabled.)
			s.cacheMaintain()
		case <-t.C:
			s.cacheMaintain()
			// Deferred structural clean-up runs through the epoch manager,
			// exactly as the paper schedules reclamation tasks (§4.6.5):
			// the collapse executes only after concurrent readers have
			// moved past the epoch in which the layer emptied.
			if s.tree.PendingMaintenance() > 0 {
				s.mgr.Retire(func() { s.tree.Maintain() })
			}
			s.mgr.Advance()
			// Loose clock synchronization (§5.1): lift lagging worker
			// clocks to the global maximum, and write that maximum as a
			// timestamp mark to each log. The marks are what keep the
			// recovery cutoff fresh — an idle worker's log otherwise
			// retains a stale maximum durable timestamp and t = min over
			// logs would discard every busier log's tail.
			//
			// Soundness: shards are lifted to m first, so any operation
			// drawing a version after this point exceeds m; and a log is
			// only marked while its worker's draw-to-append mutex is free
			// (TryLock), so the mark never claims durability for a drawn-
			// but-unappended record. Unchanged m means no new writes:
			// skip, so idle stores do not grow their logs.
			if m := s.clock.synchronize(); s.logs != nil && m > lastMark {
				all := true
				for w := 0; w < s.logs.Workers(); w++ {
					if mu := &s.workerMu[w]; mu.TryLock() {
						s.logs.Writer(w).AppendMark(m)
						mu.Unlock()
					} else {
						all = false // busy worker: retry next tick
					}
				}
				if all {
					lastMark = m
				}
			}
		case <-s.stop:
			return
		}
	}
}

// cacheMaintain runs one cache-mode maintenance pass: the incremental TTL
// sweep, then the policy drain-and-evict. Both remove keys through the
// border-lock remove path under the maintenance epoch handle, so deferred
// structural reclamation treats them like any session's operation.
func (s *Store) cacheMaintain() {
	if !s.ttlUsed.Load() && !s.cache.EvictionEnabled() {
		return
	}
	if h := s.obs.Hist(obs.HEvict); h != nil {
		start := time.Now()
		defer func() { h.Record(0, time.Since(start)) }()
	}
	s.evictH.Enter()
	defer s.evictH.Exit()
	if s.ttlUsed.Load() {
		// Adaptive catch-up: one batch per tick suffices when expirations
		// trickle, but a TTL-heavy store (especially with eviction disabled,
		// where nothing else reclaims memory) can lapse keys faster than
		// sweepBatchKeys per tick. Keep sweeping while batches come back
		// dense with expired keys, up to a bounded number of rounds, so the
		// sweep rate scales with the backlog instead of pinning at one
		// batch regardless of it.
		now := time.Now().UnixNano()
		for round := 0; round < maxSweepRounds; round++ {
			if s.sweepExpired(now) < sweepBatchKeys/8 {
				break
			}
		}
	}
	s.cache.Maintain(s.evictKey)
}

// evictKey is the policy's remove callback: a clean drop through the same
// border-lock remove path as Remove, minus the WAL record. The predicate
// accepts whatever value is current — a put racing the eviction decision
// may see its value dropped immediately, which cache semantics permit
// (indistinguishable from evicting the key a moment after the put; the
// torture model's dropped-key rule covers exactly this). The remove floor
// is still lifted under the lock — a later re-insert of the key must draw a
// version above the dropped value's, or log replay would apply the new put
// before (and thus lose it to) the old one's higher version guard.
func (s *Store) evictKey(key []byte) bool {
	var delta int64
	var spill *value.Value
	_, ok := s.tree.RemoveIf(key, func(old *value.Value) bool {
		s.clock.noteRemove(old.Version())
		delta = -int64(old.Size())
		// Write-behind turns the clean drop into a spill: the evicted value
		// (immutable, so retaining the pointer is free) queues for the
		// backend unless it is already dead by TTL.
		if s.wb != nil && !expired(old) {
			spill = old
		}
		return true
	})
	if ok {
		s.cache.Account(-1, delta)
		s.obs.Recorder().Record(0, obs.EvEvict, obs.KeyHash(key), uint64(-delta))
		if spill != nil {
			s.wb.enqueue(key, spill)
		}
	}
	return ok
}

// sweepBatchKeys bounds how many keys one sweep batch inspects for expiry;
// maxSweepRounds bounds how many batches one maintenance tick chains when
// the batches keep coming back dense with expired keys (see cacheMaintain).
// Together they cap a tick's sweep work while letting the reclaim rate
// grow ~32x under backlog.
const (
	sweepBatchKeys = 512
	maxSweepRounds = 32
)

// sweepExpired scans up to sweepBatchKeys keys from the sweep cursor,
// physically removing values whose expiry has lapsed, and returns how many
// it dropped. Removals are clean drops (no WAL record): the expiry travels
// inside every logged value, so a replayed copy simply re-expires. RemoveIf
// re-checks expiry under the border lock — a concurrent fresh put between
// scan and removal wins.
//
// With a backend and MaxStale configured, the sweep horizon moves back by
// MaxStale: an expired-but-recent value is the stale-if-error reserve the
// loader serves during a backend outage, so the sweeper must not reclaim it
// until the stale window has also lapsed. (Reads still treat it as expired;
// only physical removal is deferred. Cache-pressure eviction is not — under
// a byte budget, memory wins over the stale reserve.) Runs under the
// maintenance epoch handle (cacheMaintain pins evictH).
//
//masstree:pinned
func (s *Store) sweepExpired(now int64) int {
	if s.loader != nil && s.cfg.MaxStale > 0 {
		now -= int64(s.cfg.MaxStale)
	}
	s.sweepKeys = s.sweepKeys[:0]
	s.sweepArena = s.sweepArena[:0]
	seen := 0
	var last []byte // copied per key: the scan's key buffer is reused
	if s.sweepBuf == nil {
		s.sweepBuf = make([]byte, 0, 64)
	}
	s.sweepBuf = s.tree.ScanInto(s.sweepCursor, s.sweepBuf, func(k []byte, v *value.Value) bool {
		seen++
		if v.Expired(now) {
			off := len(s.sweepArena)
			s.sweepArena = append(s.sweepArena, k...)
			s.sweepKeys = append(s.sweepKeys, s.sweepArena[off:len(s.sweepArena):len(s.sweepArena)])
		}
		last = append(last[:0], k...)
		return seen < sweepBatchKeys
	})
	if seen < sweepBatchKeys {
		s.sweepCursor = s.sweepCursor[:0] // reached the end: wrap to the start
	} else {
		// Resume just past the last visited key (append a 0 byte: the
		// smallest strictly-greater key).
		s.sweepCursor = append(append(s.sweepCursor[:0], last...), 0)
	}
	var dropped int64
	for _, k := range s.sweepKeys {
		var delta int64
		_, ok := s.tree.RemoveIf(k, func(old *value.Value) bool {
			if !old.Expired(now) {
				return false // re-put since the scan: keep it
			}
			s.clock.noteRemove(old.Version())
			delta = -int64(old.Size())
			return true
		})
		if ok {
			s.cache.Account(-1, delta)
			s.cache.NoteRemove(0, k)
			dropped++
		}
	}
	if dropped != 0 {
		s.cache.NoteExpirations(dropped)
		s.obs.Recorder().Record(0, obs.EvExpire, uint64(dropped), 0)
	}
	return int(dropped)
}

// CacheStats snapshots the cache-mode counters: accounted live bytes,
// evictions, expirations, and ghost hits. BytesLive is meaningful (and
// cheap) in every mode; the rest stay zero unless MaxBytes/TTLs are in use.
func (s *Store) CacheStats() cache.Stats { return s.cache.Stats() }

// MaxBytes reports the configured cache-mode byte budget (0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.cache.MaxBytes() }

// Tree exposes the underlying Masstree (benchmarks and tests).
func (s *Store) Tree() *core.Tree { return s.tree }

// Epoch exposes the store's epoch manager (sessions register handles).
func (s *Store) Epoch() *epoch.Manager { return &s.mgr }

// Len returns the number of keys.
func (s *Store) Len() int { return s.tree.Len() }

// expired reports whether v carries a lapsed expiry — the lazy half of TTL
// enforcement: every read path treats an expired value as absent the moment
// its deadline passes, without waiting for the background sweep to remove
// it physically. time.Now is only consulted for values that carry an expiry
// at all, so TTL-free workloads pay one header load and a branch.
func expired(v *value.Value) bool {
	e := v.ExpiresAt()
	return e != 0 && e <= uint64(time.Now().UnixNano())
}

// Get returns the requested columns of key's value, or (nil, false) if the
// key is absent. cols == nil returns all columns. The caller must hold an
// epoch pin (Session.Get does).
//
//masstree:pinned
func (s *Store) Get(key []byte, cols []int) ([][]byte, bool) {
	v, ok := s.tree.Get(key)
	if !ok || expired(v) {
		return nil, false
	}
	return pickCols(v, cols), true
}

// GetInto is Get appending the requested columns to dst instead of
// allocating a fresh slice; it returns the extended slice. With a reused
// dst the read path performs no allocations (the column contents alias the
// immutable value, so no byte copying happens either). The caller must hold
// an epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetInto(key []byte, cols []int, dst [][]byte) ([][]byte, bool) {
	v, ok := s.tree.Get(key)
	if !ok || expired(v) {
		return dst, false
	}
	return AppendCols(dst, v, cols), true
}

// GetValue returns the whole value object. The caller must hold an epoch
// pin.
//
//masstree:pinned
func (s *Store) GetValue(key []byte) (*value.Value, bool) {
	v, ok := s.tree.Get(key)
	if !ok || expired(v) {
		return nil, false
	}
	return v, true
}

// BatchScratch holds reusable state for GetBatchInto and the write path: the
// lookup results, a batched write's per-key state, and the core tree's
// batch-ordering scratch. One scratch per worker or connection makes
// steady-state batched reads and writes allocation-free (beyond the packed
// values a put must build). Lookup results stay valid until the next
// GetBatchInto with the scratch, and PutBatchInto's versions until its next
// write.
type BatchScratch struct {
	vals  []*value.Value
	found []bool
	w     writeBatch
	core  core.BatchScratch
}

// GetBatchInto is the allocation-free batched lookup: values and found
// flags are written into sc's reusable slices and remain valid until the
// next call with the same scratch. Column extraction is left to the caller
// (each request in a batch may want different columns); use AppendCols.
// The caller must hold an epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetBatchInto(keys [][]byte, sc *BatchScratch) ([]*value.Value, []bool) {
	n := len(keys)
	if cap(sc.vals) < n {
		sc.vals = make([]*value.Value, n) //lint:allow noalloc scratch warm-up: amortized over the scratch lifetime
		sc.found = make([]bool, n)        //lint:allow noalloc scratch warm-up: amortized over the scratch lifetime
	}
	sc.vals = sc.vals[:n]
	sc.found = sc.found[:n]
	s.tree.GetBatchInto(keys, sc.vals, sc.found, &sc.core)
	for i := range sc.found {
		if sc.found[i] && expired(sc.vals[i]) {
			sc.vals[i], sc.found[i] = nil, false
		}
	}
	return sc.vals, sc.found
}

// AppendCols appends the requested columns of v (nil = all) to dst and
// returns the extended slice. The appended slices alias v's immutable
// packed allocation and must not be mutated.
func AppendCols(dst [][]byte, v *value.Value, cols []int) [][]byte {
	if cols == nil {
		for i, n := 0, v.NumCols(); i < n; i++ {
			dst = append(dst, v.Col(i))
		}
		return dst
	}
	for _, c := range cols {
		dst = append(dst, v.Col(c))
	}
	return dst
}

func pickCols(v *value.Value, cols []int) [][]byte {
	if cols == nil {
		return v.Cols()
	}
	return AppendCols(make([][]byte, 0, len(cols)), v, cols)
}

// lockWorker serializes worker's draw-to-append window; see workerMu.
func (s *Store) lockWorker(worker int) *paddedMutex {
	mu := &s.workerMu[worker%len(s.workerMu)]
	mu.Lock()
	return mu
}

// paddedMutex keeps per-worker mutexes off each other's cache lines.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// Remove deletes key, logging through the given worker's log.
func (s *Store) Remove(worker int, key []byte) bool {
	if s.logs != nil {
		mu := s.lockWorker(worker)
		defer mu.Unlock()
	}
	var ver uint64
	var delta int64
	wasExpired := false
	_, ok := s.tree.RemoveWith(key, func(old *value.Value) {
		ver = s.clock.tick(worker, old.Version())
		// Lift the remove floor while the border lock is still held: the
		// tree forgets the key's version history once it is unlinked, so a
		// re-insert racing with this remove must already see the floor when
		// it acquires the lock — lifting it after RemoveWith returns would
		// let that insert draw a version below the remove's timestamp and
		// replay in the wrong order.
		s.clock.noteRemove(ver)
		delta = -int64(old.Size())
		wasExpired = expired(old)
	})
	if ok {
		if s.logs != nil {
			s.logs.Writer(worker).AppendRemove(ver, key)
		}
		s.cache.Account(worker, delta)
		s.cache.NoteRemove(worker, key)
		// Read-through stores propagate the delete upstream (a tombstone in
		// the write-behind queue); without it the next GetOrLoad would
		// resurrect the removed key from the backend.
		if s.wb != nil {
			s.wb.enqueue(key, nil)
		}
	}
	// A lazily-expired value reads as absent on every path, so removing it
	// must report "did not exist" too (memcached's delete-of-expired is a
	// miss). The physical removal and its log record still happen above —
	// the remove is correct cleanup either way.
	return ok && !wasExpired
}

// maxRangeScanVisits bounds how many entries one range query may visit,
// results and lazily-expired skips combined. Without it a small-n range
// whose start lands in a large freshly-lapsed region would walk the whole
// dead span inside one request (the sweep reclaims it only incrementally) —
// unbounded CPU for a cheap-looking query. Hitting the cap needs tens of
// thousands of consecutive expired entries; the documented cost is that
// such a query may return short before the sweep catches up.
const maxRangeScanVisits = 1 << 16

// GetRange returns up to n pairs starting at the first key >= start,
// retrieving the requested columns (nil = all). Like the paper's getrange it
// is not atomic with respect to concurrent inserts and updates (§3).
// Lazily-expired values are skipped without counting toward n; a scan
// crossing an extremely large expired region (see maxRangeScanVisits) may
// return fewer than n pairs before the background sweep reclaims it.
// The caller must hold an epoch pin.
//
//masstree:pinned
func (s *Store) GetRange(start []byte, n int, cols []int) []Pair {
	if n <= 0 {
		return nil
	}
	out := make([]Pair, 0, n)
	visited := 0
	s.tree.Scan(start, func(k []byte, v *value.Value) bool {
		visited++
		if expired(v) {
			return visited < maxRangeScanVisits // lazily dead: skip without counting toward n
		}
		out = append(out, Pair{Key: k, Cols: pickCols(v, cols)})
		return len(out) < n && visited < maxRangeScanVisits
	})
	return out
}

// RangeScratch holds reusable arenas for GetRangeInto: the pair slice, a
// column-slice arena, a key-byte arena, and the tree scan's key assembly
// buffer. One scratch per connection makes steady-state range queries
// allocation-free (arena growth aside).
type RangeScratch struct {
	pairs []Pair
	cols  [][]byte
	keys  []byte
	kbuf  []byte
}

// Reset forgets accumulated pairs (typically once per request batch). The
// backing arrays are retained for reuse.
func (sc *RangeScratch) Reset() {
	sc.pairs = sc.pairs[:0]
	sc.cols = sc.cols[:0]
	sc.keys = sc.keys[:0]
}

// Shrink releases arenas grown past roughly max bytes so one huge range
// query does not pin scratch for a connection's lifetime.
func (sc *RangeScratch) Shrink(max int) {
	if cap(sc.pairs)*48 > max { // ~sizeof(Pair)
		sc.pairs = nil
	}
	if cap(sc.cols)*24 > max {
		sc.cols = nil
	}
	if cap(sc.keys) > max {
		sc.keys = nil
	}
	if cap(sc.kbuf) > max {
		sc.kbuf = nil
	}
}

// GetRangeInto is GetRange appending into sc's reusable arenas instead of
// allocating per request: keys are copied into a byte arena, columns into
// the column arena, pairs into the pair slice. The returned window aliases
// sc and stays valid until sc.Reset (appends never rewrite established
// backing memory, so earlier windows survive arena growth). The caller must
// hold an epoch pin.
//
//masstree:pinned
func (s *Store) GetRangeInto(start []byte, n int, cols []int, sc *RangeScratch) []Pair {
	if n <= 0 {
		return nil
	}
	base := len(sc.pairs)
	visited := 0
	sc.kbuf = s.tree.ScanInto(start, sc.kbuf, func(k []byte, v *value.Value) bool {
		visited++
		if expired(v) {
			return visited < maxRangeScanVisits // lazily dead: skip, not counted toward n
		}
		ks := len(sc.keys)
		sc.keys = append(sc.keys, k...)
		cs := len(sc.cols)
		sc.cols = AppendCols(sc.cols, v, cols)
		sc.pairs = append(sc.pairs, Pair{
			Key:  sc.keys[ks:len(sc.keys):len(sc.keys)],
			Cols: sc.cols[cs:len(sc.cols):len(sc.cols)],
		})
		return len(sc.pairs)-base < n && visited < maxRangeScanVisits
	})
	return sc.pairs[base:len(sc.pairs):len(sc.pairs)]
}

// Checkpoint writes a checkpoint of all keys and values, then reclaims log
// space and older checkpoints (§5). It runs in parallel with request
// processing, with cfg.CheckpointParts concurrent part writers.
func (s *Store) Checkpoint() (path string, n int, err error) {
	return s.CheckpointN(s.cfg.CheckpointParts)
}

// CheckpointN is Checkpoint with an explicit part count: the key space is
// partitioned into parts disjoint ranges at evenly spaced key ranks, each
// range is scanned and written concurrently to its own part file (§5's
// multi-threaded checkpoint), and the manifest commits them atomically.
// The scans are fuzzy — they run in parallel with request processing over
// the tree's immutable values — and log replay repairs whatever they miss.
// parts <= 0 uses GOMAXPROCS. Returns the manifest path.
func (s *Store) CheckpointN(parts int) (path string, n int, err error) {
	if s.cfg.Dir == "" {
		return "", 0, fmt.Errorf("kvstore: checkpointing requires a persistence directory")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	ckptStart := time.Now()
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	if parts > checkpoint.MaxParts {
		// Clamp before partitioning: the bounds and the part files must
		// agree on the count, or keys past the last written part's end
		// bound would silently vanish from the checkpoint.
		parts = checkpoint.MaxParts
	}

	gen, err := s.logs.Rotate()
	if err != nil {
		return "", 0, err
	}
	// Synchronize (not just read) the worker clocks, then drain every
	// worker's draw-to-append window by bouncing through its mutex. After
	// the barrier, (a) any write with a version <= startTS has fully
	// applied and appended — its tree effect is visible to the scans below
	// and its log record sits in a position the checkpoint supersedes —
	// and (b) any write the scans can miss (applied after a scan read its
	// node) must draw from a lifted clock, giving it a version > startTS
	// in a retained log generation. Recovery exploits the dichotomy:
	// replay skips records with ts <= startTS outright, because replaying
	// them could resurrect state (a stale put whose superseding remove is
	// only recorded by the checkpoint as absence has nothing to
	// version-guard against), while everything above startTS replays
	// normally.
	startTS := s.clock.synchronize()
	s.obs.Recorder().Record(0, obs.EvCkptBegin, startTS, uint64(parts))
	for w := range s.workerMu {
		mu := &s.workerMu[w]
		mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		mu.Unlock()
	}

	bounds := s.partitionBounds(parts)
	parts = len(bounds) + 1
	// Expired values are dead weight: skip them so checkpoints shrink to the
	// live set and recovery never resurrects them (their pre-checkpoint log
	// records are skipped wholesale by the ts <= startTS rule). The deadline
	// is sampled once so every part applies the same cut.
	ckptNow := time.Now().UnixNano()
	n, err = checkpoint.WriteParts(s.fsys, s.cfg.Dir, startTS, parts, func(k int, emit func(checkpoint.Entry) error) error {
		var start, end []byte
		if k > 0 {
			start = bounds[k-1]
		}
		if k < len(bounds) {
			end = bounds[k]
		}
		var emitErr error
		buf := make([]byte, 0, 64)
		s.tree.ScanInto(start, buf, func(key []byte, v *value.Value) bool {
			if end != nil && bytes.Compare(key, end) >= 0 {
				return false // next part's range
			}
			if v.Expired(ckptNow) {
				return true // dead by TTL: checkpoints carry only live data
			}
			if err := emit(checkpoint.Entry{Key: key, Value: v}); err != nil {
				emitErr = err
				return false
			}
			return true
		})
		return emitErr
	})
	if err != nil {
		return "", 0, err
	}
	// WriteParts' directory sync was the commit point: record the commit and
	// the whole write's latency before moving on to reclamation.
	s.obs.Hist(obs.HCheckpoint).Record(0, time.Since(ckptStart))
	s.obs.Recorder().Record(0, obs.EvCkptCommit, startTS, uint64(n))
	path = filepath.Join(s.cfg.Dir, checkpoint.ManifestName(startTS))
	// The WriteParts directory sync above is the commit point; only now is
	// it safe to reclaim the state the new checkpoint supersedes.
	if err := checkpoint.DropFS(s.fsys, s.cfg.Dir, startTS); err != nil {
		return path, n, err
	}
	if err := s.logs.DropBefore(gen); err != nil {
		return path, n, err
	}
	// Make the reclamation removes durable too. Recovery tolerates a
	// resurrected old log (its pre-checkpoint records neither replay nor
	// constrain the cutoff, see recover), but leaving the removes volatile
	// for the whole inter-checkpoint interval costs disk space across
	// crashes for no benefit.
	if err := s.fsys.SyncDir(s.cfg.Dir); err != nil {
		return path, n, err
	}
	return path, n, nil
}

// partitionBounds samples parts-1 keys at evenly spaced ranks, splitting
// the key space into contiguous ranges of roughly equal population. The
// sampling scan is fuzzy (concurrent writes shift ranks harmlessly): all
// that matters is that the bounds are strictly increasing, which a single
// ordered scan guarantees, so the ranges are disjoint and cover everything.
func (s *Store) partitionBounds(parts int) [][]byte {
	n := s.tree.Len()
	if parts <= 1 || n < 2*parts {
		return nil
	}
	bounds := make([][]byte, 0, parts-1)
	stride := n / parts
	i, next := 0, stride
	//lint:allow epochguard checkpoint scans run unpinned by design: a minutes-long pin would stall reclamation, and GC keeps detached nodes readable
	s.tree.ScanInto(nil, make([]byte, 0, 64), func(k []byte, _ *value.Value) bool {
		if i == next {
			bounds = append(bounds, append([]byte(nil), k...))
			next += stride
			if len(bounds) == parts-1 {
				return false
			}
		}
		i++
		return true
	})
	return bounds
}

// Flush forces buffered log records to the operating system (and to storage
// when SyncWrites is set).
func (s *Store) Flush() error {
	if s.logs == nil {
		return nil
	}
	return s.logs.Flush()
}

// FlushStats reports accumulated log flush failures: the total count across
// all workers' logs (including background group commits, whose errors have
// no caller to return to) and the most recent error. A non-zero count means
// acknowledged puts may not be durable even though the store kept serving.
func (s *Store) FlushStats() (errs int64, last error) {
	if s.logs == nil {
		return 0, nil
	}
	return s.logs.FlushStats()
}

// FlushRetries reports how many log flush attempts were retries made under a
// failure backoff (see the wal writer's capped exponential retry pacing).
func (s *Store) FlushRetries() int64 {
	if s.logs == nil {
		return 0
	}
	return s.logs.FlushRetries()
}

// DrainWriteBehind blocks until the write-behind spill queue is empty or
// the timeout lapses, reporting whether it fully drained. A no-op (true)
// without a write-behind queue. Graceful shutdown calls this before Close
// with its own drain budget; Close itself also performs a bounded drain.
func (s *Store) DrainWriteBehind(timeout time.Duration) bool {
	if s.wb == nil {
		return true
	}
	return s.wb.drain(timeout)
}

// closeDrainTimeout bounds Close's final write-behind drain: long enough to
// flush a healthy queue, short enough that a dead backend cannot wedge
// shutdown. Callers who need a larger budget drain explicitly first.
const closeDrainTimeout = 2 * time.Second

// Close stops background work and flushes and closes the logs. A clean
// shutdown writes a timestamp mark to every log so recovery's cutoff does
// not discard the durable tail of busier logs (see wal.OpMark); with
// write-behind armed, pending spills get a bounded final drain first.
func (s *Store) Close() error {
	if s.wb != nil {
		s.wb.close(closeDrainTimeout)
	}
	close(s.stop)
	s.wg.Wait()
	s.mgr.Unregister(s.evictH)
	s.tree.Maintain()
	if s.logs != nil {
		s.logs.Mark(s.clock.max())
		return s.logs.Close()
	}
	return nil
}

// Stats exposes tree operation counters.
func (s *Store) Stats() core.StatsSnapshot { return s.tree.Stats() }
