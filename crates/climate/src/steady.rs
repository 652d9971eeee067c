//! Steady-state CCM2 steps from a process-wide memo of recorded step
//! programs.
//!
//! The paper's application experiments (Table 5, Table 6, Figure 8, the
//! FTRACE breakdown) each price one *steady* leapfrog step: build the
//! model, take the forward spin-up step, then time the second step. A
//! step's charge stream depends only on the configuration and the grid
//! shapes, never on the field values, so the second step of every fresh
//! model with the same configuration, machine and processor count charges
//! exactly the same program. [`steady_step`] therefore takes the two real
//! steps once per `(config, machine, procs)`, records the second one as a
//! [`StepProgram`], and answers every later request for that key by
//! replaying the program — bit-identical timing, no functional math, no
//! transform build.
//!
//! The memo is bounded by [`MEMO_BUDGET_BYTES`] of recorded program and
//! evicts least-recently-used entries beyond it. Its lock is never held
//! across a step or a replay: concurrent misses on one key each take their
//! own two steps (the results are identical) and the first to finish
//! stores the program.

use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

use sxsim::{Ftrace, MachineModel, OpStats};

use crate::model::{Ccm2Config, Ccm2Proxy, StepProgram, StepTiming};

/// Heap bytes of recorded programs the process-wide memo keeps. A T42
/// 4-processor step program takes well under 1 MiB; the budget holds every
/// key of Figure 8 and Table 5 at once.
pub const MEMO_BUDGET_BYTES: usize = 64 << 20;

/// What a memo has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests answered by replaying a stored program.
    pub hits: u64,
    /// Requests that had to step a fresh model.
    pub misses: u64,
    /// Real model steps taken (two per miss).
    pub model_steps: u64,
    /// Charge programs replayed (`OpStats::program_replays` of the hits).
    pub program_replays: u64,
    /// Entries dropped to stay within the budget.
    pub evictions: u64,
    /// Entries held now.
    pub entries: usize,
    /// Heap bytes of the programs held now.
    pub bytes: usize,
}

struct Entry {
    key: Vec<u8>,
    program: Arc<StepProgram>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    stats: MemoStats,
}

/// A bounded memo of recorded steady-state step programs, keyed by
/// `(Ccm2Config, machine, procs)`. The process-wide instance behind
/// [`steady_step`] has a budget of [`MEMO_BUDGET_BYTES`].
pub struct StepMemo {
    budget: usize,
    inner: Mutex<Inner>,
}

impl StepMemo {
    /// An empty memo that keeps at most `budget` heap bytes of programs.
    pub fn new(budget: usize) -> StepMemo {
        StepMemo { budget, inner: Mutex::default() }
    }

    /// The timing of the steady (second) step of a fresh model — what
    /// `new`, `step(procs)`, `step(procs)` returns, bit for bit.
    pub fn steady_step(
        &self,
        config: &Ccm2Config,
        machine: &MachineModel,
        procs: usize,
    ) -> StepTiming {
        self.run(config, machine, procs, None)
    }

    /// [`StepMemo::steady_step`] plus the step's FTRACE breakdown — what
    /// `new`, `step(procs)`, `step_traced(procs)` returns, bit for bit.
    pub fn steady_step_traced(
        &self,
        config: &Ccm2Config,
        machine: &MachineModel,
        procs: usize,
    ) -> (StepTiming, Ftrace) {
        let mut ft = Ftrace::new();
        let timing = self.run(config, machine, procs, Some(&mut ft));
        (timing, ft)
    }

    /// Counters and occupancy so far.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats { entries: inner.entries.len(), ..inner.stats }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("no step-memo update panics while holding the lock")
    }

    fn run(
        &self,
        config: &Ccm2Config,
        machine: &MachineModel,
        procs: usize,
        ftrace: Option<&mut Ftrace>,
    ) -> StepTiming {
        let key = memo_key(config, machine, procs);
        let cached = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let hit = inner.entries.iter_mut().find(|e| e.key == key).map(|e| {
                e.last_used = tick;
                Arc::clone(&e.program)
            });
            match hit {
                Some(_) => inner.stats.hits += 1,
                None => inner.stats.misses += 1,
            }
            hit
        };
        if let Some(program) = cached {
            let mut stats = OpStats::default();
            let timing = program.replay(machine, ftrace, &mut stats);
            self.lock().stats.program_replays += stats.program_replays;
            return timing;
        }

        let mut model = Ccm2Proxy::new(config.clone(), machine.clone());
        model.step(procs); // forward (spin-up) step
        let (timing, program, ft) = model.record_step_program_traced(procs);
        if let Some(out) = ftrace {
            *out = ft;
        }
        self.insert(key, program);
        timing
    }

    fn insert(&self, key: Vec<u8>, program: StepProgram) {
        let bytes = program.heap_bytes();
        let mut inner = self.lock();
        inner.stats.model_steps += 2;
        if bytes > self.budget || inner.entries.iter().any(|e| e.key == key) {
            return;
        }
        while inner.stats.bytes + bytes > self.budget {
            let oldest = (0..inner.entries.len())
                .min_by_key(|&i| inner.entries[i].last_used)
                .expect("bytes are held, so entries exist");
            let gone = inner.entries.swap_remove(oldest);
            inner.stats.bytes -= gone.bytes;
            inner.stats.evictions += 1;
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.stats.bytes += bytes;
        inner.entries.push(Entry { key, program: Arc::new(program), bytes, last_used });
    }
}

/// Exact identity of a memo entry: every configuration field (floats by
/// bit pattern), the machine's canonical encoding and the processor count.
fn memo_key(config: &Ccm2Config, machine: &MachineModel, procs: usize) -> Vec<u8> {
    // Exhaustive, so a new configuration field cannot be left out silently.
    let Ccm2Config {
        resolution,
        u0,
        coriolis,
        physics,
        slt,
        robert,
        nu4,
        wind_feedback,
        recovered_winds,
    } = config;
    let mut key = machine.canonical_bytes();
    let name = resolution.name();
    key.extend_from_slice(&(name.len() as u64).to_be_bytes());
    key.extend_from_slice(name.as_bytes());
    for x in [u0, robert, nu4, wind_feedback] {
        key.extend_from_slice(&x.to_bits().to_be_bytes());
    }
    for b in [coriolis, physics, slt, recovered_winds] {
        key.push(*b as u8);
    }
    key.extend_from_slice(&(procs as u64).to_be_bytes());
    key
}

static MEMO: LazyLock<StepMemo> = LazyLock::new(|| StepMemo::new(MEMO_BUDGET_BYTES));

/// The steady (second) step of a fresh model on `procs` processors of
/// `machine`, served from the process-wide memo.
pub fn steady_step(config: &Ccm2Config, machine: &MachineModel, procs: usize) -> StepTiming {
    MEMO.steady_step(config, machine, procs)
}

/// The steady step with its FTRACE breakdown, served from the
/// process-wide memo.
pub fn steady_step_traced(
    config: &Ccm2Config,
    machine: &MachineModel,
    procs: usize,
) -> (StepTiming, Ftrace) {
    MEMO.steady_step_traced(config, machine, procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resolution;
    use sxsim::presets;

    fn config() -> Ccm2Config {
        Ccm2Config::benchmark(Resolution::T42)
    }

    /// The direct path the memo replaces: a fresh model's second step.
    fn two_real_steps(procs: usize) -> StepTiming {
        let mut m = Ccm2Proxy::new(config(), presets::sx4_benchmarked());
        m.step(procs);
        m.step(procs)
    }

    fn assert_bit_identical(a: &StepTiming, b: &StepTiming) {
        assert_eq!(a.timing.wall_cycles.to_bits(), b.timing.wall_cycles.to_bits());
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(a.timing.work, b.timing.work);
        assert_eq!(a.bytes_per_cycle_per_proc.to_bits(), b.bytes_per_cycle_per_proc.to_bits());
    }

    #[test]
    fn a_hit_replays_the_second_real_step_bit_for_bit() {
        let memo = StepMemo::new(MEMO_BUDGET_BYTES);
        let machine = presets::sx4_benchmarked();
        let miss = memo.steady_step(&config(), &machine, 4);
        let after_miss = memo.stats();
        assert_eq!((after_miss.misses, after_miss.hits, after_miss.model_steps), (1, 0, 2));
        assert_eq!(after_miss.program_replays, 0);

        let hit = memo.steady_step(&config(), &machine, 4);
        let after_hit = memo.stats();
        assert_eq!(after_hit.hits, 1);
        assert_eq!(after_hit.model_steps, 2, "a hit must not step a model");
        assert!(after_hit.program_replays > 0, "a hit replays the stored program");

        let direct = two_real_steps(4);
        assert_bit_identical(&miss, &direct);
        assert_bit_identical(&hit, &direct);
    }

    #[test]
    fn traced_hits_rebuild_step_traced_regions() {
        let memo = StepMemo::new(MEMO_BUDGET_BYTES);
        let machine = presets::sx4_benchmarked();
        let mut m = Ccm2Proxy::new(config(), machine.clone());
        m.step(4);
        let (direct, direct_ft) = m.step_traced(4);
        // Untraced miss, then a traced hit: the stored program carries the
        // marks whether or not the first request asked for a trace.
        memo.steady_step(&config(), &machine, 4);
        let (hit, hit_ft) = memo.steady_step_traced(&config(), &machine, 4);
        assert_eq!(memo.stats().hits, 1);
        assert_bit_identical(&hit, &direct);
        assert_eq!(hit_ft.render(9.2), direct_ft.render(9.2));
        assert_eq!(hit_ft.rows(9.2), direct_ft.rows(9.2));
        assert_eq!(hit_ft.regions().len(), direct_ft.regions().len());
        for (name, a) in direct_ft.regions() {
            let b = &hit_ft.regions()[name];
            assert_eq!(a.calls, b.calls, "{name}");
            assert_eq!(a.cost.cycles.to_bits(), b.cost.cycles.to_bits(), "{name}");
            assert_eq!(a.cost.cray_flops.to_bits(), b.cost.cray_flops.to_bits(), "{name}");
            assert_eq!(a.cost, b.cost, "{name}");
            assert_eq!(a.stats.vector_elements, b.stats.vector_elements, "{name}");
            assert_eq!(a.stats.scalar_iters, b.stats.scalar_iters, "{name}");
        }
        // A traced miss returns the recording step's own breakdown.
        let (_, miss_ft) =
            StepMemo::new(MEMO_BUDGET_BYTES).steady_step_traced(&config(), &machine, 4);
        assert_eq!(miss_ft.render(9.2), direct_ft.render(9.2));
    }

    #[test]
    fn concurrent_misses_on_one_key_agree_and_store_once() {
        // The fig8 shape: several processor counts fanned out across
        // threads, here with two threads racing on each key.
        let memo = StepMemo::new(MEMO_BUDGET_BYTES);
        let machine = presets::sx4_benchmarked();
        let cfg = Ccm2Config::adiabatic(Resolution::T42);
        let procs = [2usize, 2, 4, 4];
        let start = std::sync::Barrier::new(procs.len());
        let results: Vec<(usize, StepTiming)> = std::thread::scope(|s| {
            let handles: Vec<_> = procs
                .into_iter()
                .map(|procs| {
                    let (memo, machine, cfg, start) = (&memo, &machine, &cfg, &start);
                    s.spawn(move || {
                        // Start together, so both lookups of a key race its store.
                        start.wait();
                        (procs, memo.steady_step(cfg, machine, procs))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (procs, t) in &results {
            let again = memo.steady_step(&cfg, &machine, *procs);
            assert_bit_identical(t, &again);
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 2, "one entry per key: {stats:?}");
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.model_steps, 2 * stats.misses);
    }

    #[test]
    fn the_budget_bounds_the_memo() {
        let machine = presets::sx4_benchmarked();
        let cfg = Ccm2Config::adiabatic(Resolution::T42);
        // A budget below one program stores nothing and still answers.
        let tiny = StepMemo::new(1024);
        let a = tiny.steady_step(&cfg, &machine, 2);
        let b = tiny.steady_step(&cfg, &machine, 2);
        assert_bit_identical(&a, &b);
        assert_eq!((tiny.stats().entries, tiny.stats().hits, tiny.stats().bytes), (0, 0, 0));

        // A budget of one program keeps the most recently used key.
        let one = StepMemo::new(MEMO_BUDGET_BYTES);
        one.steady_step(&cfg, &machine, 2);
        let bytes = one.stats().bytes;
        let one = StepMemo::new(bytes + bytes / 2);
        one.steady_step(&cfg, &machine, 2);
        one.steady_step(&cfg, &machine, 3);
        let stats = one.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1), "{stats:?}");
        assert!(stats.bytes <= bytes + bytes / 2);
        one.steady_step(&cfg, &machine, 3);
        assert_eq!(one.stats().hits, 1, "the newer key survived");
    }

    #[test]
    fn keys_separate_every_input() {
        let m = presets::sx4_benchmarked();
        let base = memo_key(&config(), &m, 4);
        assert_ne!(base, memo_key(&config(), &m, 8));
        assert_ne!(base, memo_key(&config(), &presets::sx4(8.0), 4));
        let mut c = config();
        c.robert = 0.03;
        assert_ne!(base, memo_key(&c, &m, 4));
        let mut c = config();
        c.slt = false;
        assert_ne!(base, memo_key(&c, &m, 4));
        assert_ne!(base, memo_key(&Ccm2Config::benchmark(Resolution::T63), &m, 4));
        assert_eq!(base, memo_key(&config(), &presets::sx4_benchmarked(), 4));
    }
}
