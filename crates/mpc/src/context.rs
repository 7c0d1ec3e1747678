//! The accounting facade used by algorithm crates.
//!
//! [`MpcContext`] charges every MPC primitive an exact round count
//! derived from the cluster shape (validated against the real
//! protocols in [`primitives`](crate::primitives)), tracks
//! per-machine and total memory high-water marks, and slices the
//! counters into *phases* (one phase = one update batch or query, the
//! unit the paper's theorems speak about).
//!
//! Every public primitive is a constructor call of one [`MpcEvent`]:
//! the ledger — stats, machine loads, phase and parallel-scope state,
//! and the branch recording log — lives in a private module whose only
//! charging entry applies an event, recording it first when a log is
//! open. [`MpcContext::replay`] runs that same entry over a recorded
//! log, so live execution and replay cannot disagree: an event without
//! a charging arm does not compile, and no code outside the module can
//! reach a counter.
//!
//! Independent instances compose through one combinator,
//! [`MpcContext::parallel`], which opens a parallel scope, closes a
//! branch after each instance's work, and closes the scope on every
//! exit, the first `Err` included. It is the only way to emit the
//! three scope events outside a replayed log, so an unbalanced scope
//! cannot be written.

use crate::config::MpcConfig;
use crate::error::MpcError;
use crate::stats::{Op, PhaseReport, Stats};

pub use ledger::MpcContext;

/// One invocation of a mutating [`MpcContext`] operation — the unit
/// the ledger charges.
///
/// A forked context (see [`MpcContext::fork_for_branch`]) records
/// every event it applies, and [`MpcContext::replay`] feeds such a log
/// back through the same charging entry on another context, in the
/// identical order. All charges are pure functions of the
/// configuration and the event, so a replayed log charges
/// bit-identical rounds, words, peaks, and violations to running the
/// work directly. No session forks: its branches run inline against
/// the master context; the log exists for tracing tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcEvent {
    /// [`MpcContext::exchange`]
    Exchange(u64),
    /// [`MpcContext::broadcast`]
    Broadcast(u64),
    /// [`MpcContext::converge_cast`] `(items, item_words)`
    ConvergeCast(u64, u64),
    /// [`MpcContext::sort`]
    Sort(u64),
    /// [`MpcContext::gather`]
    Gather(u64),
    /// [`MpcContext::set_load`]
    SetLoad(usize, u64),
    /// [`MpcContext::parallel`] opens its scope
    ParallelBegin,
    /// [`MpcContext::parallel`] closes a branch after its work
    ParallelBranch,
    /// [`MpcContext::parallel`] closes its scope
    ParallelEnd,
    /// [`MpcContext::begin_phase`]
    BeginPhase(String),
    /// [`MpcContext::end_phase`]
    EndPhase,
}

// Events that cannot fail discard the `Ok(None)` that `apply` returns.
impl MpcContext {
    // ----- phases ------------------------------------------------

    /// Starts a phase (an update batch or a query). Phases let
    /// experiments report *rounds per batch*, the paper's headline
    /// quantity.
    pub fn begin_phase(&mut self, label: &str) {
        let _ = self.apply(MpcEvent::BeginPhase(label.to_string()));
    }

    /// Ends the current phase and reports its consumption.
    ///
    /// # Panics
    ///
    /// Panics if no phase is active.
    #[expect(
        clippy::expect_used,
        reason = "documented \"# Panics\" contract — unbalanced phase calls are a caller bug"
    )]
    pub fn end_phase(&mut self) -> PhaseReport {
        self.apply(MpcEvent::EndPhase)
            .ok()
            .flatten()
            .expect("end_phase without begin_phase")
    }

    // ----- parallel composition -----------------------------------

    /// Runs independent algorithm instances in parallel (the paper's
    /// "run Θ(log n) instances in parallel" on disjoint machine
    /// groups): `branch` runs once per item of `branches`, in order,
    /// and the whole call contributes the **maximum** branch round
    /// count instead of the sum. Words (communication volume) still
    /// accumulate across branches — all of it really moves. Per-op
    /// round attribution keeps counting serial-equivalent work. Calls
    /// nest: an inner composition is part of its branch's work.
    ///
    /// # Errors
    ///
    /// The first `Err` a branch returns, after which no further branch
    /// runs. The failing branch's partial work still counts as one
    /// more branch, and the scope is closed on this exit too.
    pub fn parallel<I: IntoIterator, E>(
        &mut self,
        branches: I,
        mut branch: impl FnMut(I::Item, &mut MpcContext) -> Result<(), E>,
    ) -> Result<(), E> {
        let _ = self.apply(MpcEvent::ParallelBegin);
        let result = branches.into_iter().try_for_each(|b| {
            branch(b, self)?;
            let _ = self.apply(MpcEvent::ParallelBranch);
            Ok(())
        });
        // Trailing work, a failed branch's included, counts as a branch.
        let _ = self.apply(MpcEvent::ParallelEnd);
        result
    }

    // ----- round-charged primitives -------------------------------

    /// One synchronous point-to-point exchange moving `words` words.
    pub fn exchange(&mut self, words: u64) {
        let _ = self.apply(MpcEvent::Exchange(words));
    }

    /// Broadcast of a `words`-word payload from a coordinator to all
    /// machines through a fan-out tree.
    pub fn broadcast(&mut self, words: u64) {
        let _ = self.apply(MpcEvent::Broadcast(words));
    }

    /// Converge-cast (aggregation tree) folding `items` values of
    /// `item_words` words each down to one machine. This is the
    /// paper's sketch-merging step: `O(log_{s/‖sketch‖} n) = O(1/φ)`
    /// rounds (footnote 8 of the paper).
    pub fn converge_cast(&mut self, items: u64, item_words: u64) {
        let _ = self.apply(MpcEvent::ConvergeCast(items, item_words));
    }

    /// Distributed sort of `total_words` words (GSZ'11:
    /// `O(log_s N) = O(1/φ)` rounds).
    pub fn sort(&mut self, total_words: u64) {
        let _ = self.apply(MpcEvent::Sort(total_words));
    }

    /// Checks that a `words`-word batch structure *could* be gathered
    /// onto one machine without charging any rounds — the legality
    /// gate every maintainer applies before touching its state
    /// (Section 1.2: a batch must fit into a local machine). Use this
    /// when the batch's routing rounds are charged separately.
    ///
    /// # Errors
    ///
    /// [`MpcError::GatherTooLarge`] if the payload exceeds `s`.
    pub fn ensure_batch_fits(&self, words: u64) -> Result<(), MpcError> {
        let capacity = self.config().local_capacity();
        if words > capacity {
            return Err(MpcError::GatherTooLarge { words, capacity });
        }
        Ok(())
    }

    /// Gathers a `words`-word payload onto the coordinator machine.
    ///
    /// # Errors
    ///
    /// [`MpcError::GatherTooLarge`] if the payload exceeds the local
    /// capacity — the paper's algorithms only ever gather `O(k)`-word
    /// auxiliary structures that fit in one machine (Claim 6.1), so
    /// hitting this means the batch-size precondition was violated.
    pub fn gather(&mut self, words: u64) -> Result<(), MpcError> {
        self.apply(MpcEvent::Gather(words)).map(drop)
    }

    // ----- memory accounting --------------------------------------

    /// Replaces the tracked load of machine `m` with an absolute
    /// word count (convenient for state-holding structures that
    /// re-report their sharded footprint after each batch), observing
    /// the machine's peak and its capacity: the one way a maintainer
    /// reports memory.
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`MpcError::LocalMemoryExceeded`] on
    /// overflow.
    pub fn set_load(&mut self, m: usize, words: u64) -> Result<(), MpcError> {
        self.apply(MpcEvent::SetLoad(m, words)).map(drop)
    }
}

/// The ledger: every counter of [`MpcContext`] and the one `match`
/// that moves them. Its fields are private to this module, so a
/// primitive can only charge by constructing an [`MpcEvent`] — which
/// is recorded for replay by the same call that charges it.
mod ledger {
    use super::{MpcConfig, MpcError, MpcEvent, Op, PhaseReport, Stats};
    use crate::primitives::{tree_fanout, tree_rounds};

    /// Accounting context for one algorithm instance running on a
    /// simulated cluster.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpc_sim::{MpcConfig, MpcContext};
    ///
    /// let mut ctx = MpcContext::new(MpcConfig::builder(256, 0.5).build());
    /// ctx.begin_phase("batch");
    /// ctx.broadcast(10);
    /// ctx.converge_cast(256, 4);
    /// let r = ctx.end_phase();
    /// assert!(r.rounds <= 2 * ctx.config().round_budget_per_primitive());
    /// ```
    #[derive(Debug, Clone)]
    pub struct MpcContext {
        cfg: MpcConfig,
        stats: Stats,
        loads: Vec<u64>,
        total_load: u64,
        phase_label: Option<String>,
        phase_start_rounds: u64,
        phase_start_words: u64,
        parallel_stack: Vec<(u64, u64)>,
        log: Option<Vec<MpcEvent>>,
    }

    impl MpcContext {
        /// Creates a context for the given cluster configuration.
        pub fn new(cfg: MpcConfig) -> Self {
            let machines = cfg.machines();
            MpcContext::with_ledger(cfg, Stats::new(), vec![0; machines], 0)
        }

        /// A context with no open phase, scope, or log.
        fn with_ledger(cfg: MpcConfig, stats: Stats, loads: Vec<u64>, total_load: u64) -> Self {
            MpcContext {
                cfg,
                stats,
                loads,
                total_load,
                phase_label: None,
                phase_start_rounds: 0,
                phase_start_words: 0,
                parallel_stack: Vec::new(),
                log: None,
            }
        }

        // ----- event recording and replay ---------------------------

        /// Forks a recording context.
        ///
        /// The fork carries the master's configuration, cumulative
        /// stats, and machine loads (so capacity checks and peak
        /// observation see the true cluster state), but starts with an
        /// empty parallel stack, no active phase, and an **event log**:
        /// every event applied to the fork is recorded. Passing
        /// [`MpcContext::take_log`]'s events to [`MpcContext::replay`]
        /// on the master charges it exactly what running the same work
        /// directly would have, because every charge is a pure function
        /// of `(config, event)`. The session never forks (its branches
        /// run inline); tracing tools use the pair to time the ledger
        /// apart from the work.
        pub fn fork_for_branch(&self) -> MpcContext {
            let mut fork = self.clone();
            fork.parallel_stack.clear();
            fork.phase_label = None;
            fork.log = Some(Vec::new());
            fork
        }

        /// Takes the recorded event log (empty if recording was off).
        pub fn take_log(&mut self) -> Vec<MpcEvent> {
            self.log.take().unwrap_or_default()
        }

        /// Applies a recorded event sequence to this context, stopping
        /// at (and returning) the first error, exactly as the original
        /// caller would have experienced it.
        ///
        /// # Errors
        ///
        /// Whatever the replayed operation returns — e.g.
        /// [`MpcError::GatherTooLarge`] or, in strict mode,
        /// [`MpcError::LocalMemoryExceeded`].
        pub fn replay(&mut self, events: &[MpcEvent]) -> Result<(), MpcError> {
            // Never re-record while replaying (a master context
            // normally has no log, but replay must be safe on any).
            let saved = self.log.take();
            let result = events
                .iter()
                .try_for_each(|e| self.apply(e.clone()).map(drop));
            self.log = saved;
            result
        }

        /// The cluster configuration.
        pub fn config(&self) -> &MpcConfig {
            &self.cfg
        }

        /// The cumulative counters.
        pub fn stats(&self) -> &Stats {
            &self.stats
        }

        /// Total rounds charged so far.
        pub fn rounds(&self) -> u64 {
            self.stats.rounds
        }

        /// Current total words held across the cluster.
        pub fn total_load(&self) -> u64 {
            self.total_load
        }

        /// Current words held on machine `m`.
        pub fn load(&self, m: usize) -> u64 {
            self.loads[m]
        }

        /// Records `event` if a log is open, then charges it. The one
        /// place a counter moves; `EndPhase` returns the closed
        /// phase's report (`None` if no phase was open), every other
        /// event `Ok(None)`.
        // Inlined so each primitive's constant event folds the match
        // to its one arm: called out of line, `ask_connected_ns` read
        // 1.4–3.2 % slower on every benchmark workload.
        #[inline(always)]
        #[deny(
            clippy::wildcard_enum_match_arm,
            clippy::match_wildcard_for_single_variants
        )]
        pub(super) fn apply(&mut self, event: MpcEvent) -> Result<Option<PhaseReport>, MpcError> {
            if let Some(log) = self.log.as_mut() {
                log.push(event.clone());
            }
            let cap = self.cfg.local_capacity();
            match event {
                MpcEvent::Exchange(words) => self.stats.charge(Op::Exchange, 1, words),
                MpcEvent::Broadcast(words) => {
                    let fanout = tree_fanout(cap, words);
                    let rounds = tree_rounds(self.cfg.machines(), fanout);
                    let total = words * self.cfg.machines() as u64;
                    self.stats.charge(Op::Broadcast, rounds, total);
                }
                MpcEvent::ConvergeCast(items, item_words) => {
                    let fanout = tree_fanout(cap, item_words);
                    let rounds = tree_rounds(items.max(1) as usize, fanout);
                    self.stats.charge(Op::Aggregate, rounds, items * item_words);
                }
                MpcEvent::Sort(total_words) => {
                    let s = cap.max(2);
                    let mut rounds = 1;
                    let mut covered = s;
                    while covered < total_words.max(1) {
                        covered = covered.saturating_mul(s);
                        rounds += 1;
                    }
                    // Sample + route + deliver constant overhead.
                    self.stats.charge(Op::Sort, rounds + 2, total_words);
                }
                MpcEvent::Gather(words) => {
                    if words > cap {
                        return Err(MpcError::GatherTooLarge {
                            words,
                            capacity: cap,
                        });
                    }
                    self.stats.charge(Op::Gather, 1, words);
                }
                MpcEvent::SetLoad(m, words) => {
                    let old = self.loads[m];
                    self.loads[m] = words;
                    self.total_load = self.total_load + words - old;
                    self.observe_load(m)?;
                }
                MpcEvent::ParallelBegin => self.parallel_stack.push((self.stats.rounds, 0)),
                MpcEvent::ParallelBranch => {
                    #[expect(
                        clippy::expect_used,
                        reason = "scope invariant — only `parallel` emits scope events, always balanced; a replayed log is a recording of it"
                    )]
                    let (saved, max) = self
                        .parallel_stack
                        .last_mut()
                        .expect("ParallelBranch outside a parallel scope");
                    *max = (*max).max(self.stats.rounds - *saved);
                    self.stats.rounds = *saved;
                }
                MpcEvent::ParallelEnd => {
                    #[expect(
                        clippy::expect_used,
                        reason = "scope invariant — only `parallel` emits scope events, always balanced; a replayed log is a recording of it"
                    )]
                    let (saved, max) = self
                        .parallel_stack
                        .pop()
                        .expect("ParallelEnd without ParallelBegin");
                    // Any trailing un-branched work counts as one more branch.
                    let trailing = self.stats.rounds - saved;
                    self.stats.rounds = saved + max.max(trailing);
                }
                MpcEvent::BeginPhase(label) => {
                    self.phase_label = Some(label);
                    self.phase_start_rounds = self.stats.rounds;
                    self.phase_start_words = self.stats.words_communicated;
                }
                MpcEvent::EndPhase => {
                    return Ok(self.phase_label.take().map(|label| PhaseReport {
                        label,
                        rounds: self.stats.rounds - self.phase_start_rounds,
                        words: self.stats.words_communicated - self.phase_start_words,
                    }));
                }
            }
            Ok(None)
        }

        /// Observes machine `m`'s new load: the peak and capacity check
        /// of the `SetLoad` arm of [`MpcContext::apply`].
        fn observe_load(&mut self, m: usize) -> Result<(), MpcError> {
            let used = self.loads[m];
            let cap = self.cfg.local_capacity();
            self.stats.observe_memory(used, self.total_load);
            if used > cap {
                if self.cfg.strict() {
                    return Err(MpcError::LocalMemoryExceeded {
                        machine: m,
                        used,
                        capacity: cap,
                    });
                }
                self.stats.record_violation(m, used, cap);
            }
            Ok(())
        }
    }

    // A checkpoint is only taken between batches, when no phase or
    // parallel scope is open and no branch log is being recorded, so
    // only the durable ledger travels: configuration, cumulative stats,
    // and the per-machine loads. By hand: the transient fields are
    // reset on load, not read.
    impl mpc_snapshot::Persist for MpcContext {
        fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
            self.cfg.save(w);
            self.stats.save(w);
            self.loads.save(w);
            self.total_load.save(w);
        }
        fn load(
            r: &mut mpc_snapshot::SnapshotReader<'_>,
        ) -> Result<Self, mpc_snapshot::SnapshotError> {
            let cfg = MpcConfig::load(r)?;
            let stats = Stats::load(r)?;
            let loads = Vec::<u64>::load(r)?;
            let total_load = u64::load(r)?;
            if loads.len() != cfg.machines() {
                return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                    "context tracks {} machine loads but the configuration has {} machines",
                    loads.len(),
                    cfg.machines()
                )));
            }
            if loads.iter().sum::<u64>() != total_load {
                return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                    "context total load {total_load} does not match the sum of machine loads"
                )));
            }
            Ok(MpcContext::with_ledger(cfg, stats, loads, total_load))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(1024, 0.5).build())
    }

    #[test]
    fn broadcast_rounds_bounded_by_budget() {
        let mut c = ctx();
        c.broadcast(8);
        assert!(c.rounds() <= c.config().round_budget_per_primitive());
    }

    #[test]
    fn converge_cast_rounds_bounded() {
        let mut c = ctx();
        c.converge_cast(1024, 4);
        assert!(c.rounds() >= 1);
        assert!(c.rounds() <= 2 * c.config().round_budget_per_primitive());
    }

    #[test]
    fn sort_rounds_log_s_of_n() {
        let mut c = ctx(); // s = 32
        c.sort(32 * 32); // needs 2 tree levels + 2 overhead
        assert_eq!(c.stats().rounds_by_op[&Op::Sort], 4);
    }

    #[test]
    fn gather_cap_enforced() {
        let mut c = ctx(); // s = 32
        assert!(c.gather(32).is_ok());
        assert!(matches!(c.gather(33), Err(MpcError::GatherTooLarge { .. })));
    }

    #[test]
    fn phases_slice_counters() {
        let mut c = ctx();
        c.begin_phase("a");
        c.exchange(5);
        let ra = c.end_phase();
        assert_eq!(ra.rounds, 1);
        assert_eq!(ra.words, 5);
        c.begin_phase("b");
        c.exchange(7);
        c.exchange(2);
        let rb = c.end_phase();
        assert_eq!(rb.rounds, 2);
        assert_eq!(rb.words, 9);
    }

    #[test]
    #[should_panic(expected = "end_phase without begin_phase")]
    fn end_phase_without_begin_panics() {
        let mut c = ctx();
        let _ = c.end_phase();
    }

    #[test]
    fn memory_accounting_tracks_peaks() {
        let mut c = ctx();
        c.set_load(0, 10).unwrap();
        c.set_load(1, 20).unwrap();
        c.set_load(0, 5).unwrap();
        c.set_load(0, 7).unwrap();
        assert_eq!(c.load(0), 7);
        assert_eq!(c.total_load(), 27);
        assert_eq!(c.stats().peak_machine_words, 20);
        assert_eq!(c.stats().peak_total_words, 30);
    }

    #[test]
    fn permissive_mode_records_violation() {
        let mut c = MpcContext::new(
            MpcConfig::builder(1024, 0.5)
                .local_capacity(8)
                .machines(4)
                .build(),
        );
        c.set_load(2, 9).unwrap();
        assert_eq!(c.stats().violations, vec![(2, 9, 8)]);
    }

    #[test]
    fn strict_mode_errors() {
        let mut c = MpcContext::new(
            MpcConfig::builder(1024, 0.5)
                .local_capacity(8)
                .machines(4)
                .strict(true)
                .build(),
        );
        assert!(matches!(
            c.set_load(1, 9),
            Err(MpcError::LocalMemoryExceeded { machine: 1, .. })
        ));
    }

    /// `k` one-word exchanges: `k` rounds, `k` words.
    fn exchanges(c: &mut MpcContext, k: u64) {
        for _ in 0..k {
            c.exchange(1);
        }
    }

    /// Whether `c` has no open parallel scope: closing one more panics.
    fn scope_is_closed(c: &MpcContext) -> bool {
        let mut probe = c.clone();
        std::panic::catch_unwind(move || {
            let _ = probe.replay(&[MpcEvent::ParallelEnd]);
        })
        .is_err()
    }

    #[test]
    fn parallel_scope_takes_max_not_sum() {
        let mut c = ctx();
        c.begin_phase("par");
        c.parallel([1, 2], |k, c| {
            for _ in 0..k {
                c.exchange(5);
            }
            Ok::<_, MpcError>(())
        })
        .unwrap();
        let r = c.end_phase();
        assert_eq!(r.rounds, 2, "max of branches, not sum");
        assert_eq!(r.words, 15, "all communication counted");
    }

    #[test]
    fn nested_parallel_scopes() {
        let mut c = ctx();
        c.begin_phase("nested");
        // Outer branch 1: 1 + max(1, 2) = 3; outer branch 2: 1.
        c.parallel([Some([1, 2]), None], |inner, c| {
            c.exchange(1);
            match inner {
                Some(ks) => c.parallel(ks, |k, c| {
                    exchanges(c, k);
                    Ok::<_, MpcError>(())
                }),
                None => Ok(()),
            }
        })
        .unwrap();
        assert_eq!(c.end_phase().rounds, 3);
        assert!(scope_is_closed(&c));
    }

    #[test]
    fn parallel_closes_its_scope_when_a_branch_errs() {
        // Branch i charges i + 1 rounds, then the branch at `fail_at`
        // errs: the branches up to it count, by max, and none after.
        for fail_at in [0, 2, 4] {
            let mut c = ctx();
            c.begin_phase("par");
            let result = c.parallel(0..5, |i, c| {
                exchanges(c, i + 1);
                if i == fail_at {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(result, Err(fail_at));
            assert!(scope_is_closed(&c), "open after an error at {fail_at}");
            let r = c.end_phase();
            assert_eq!(r.rounds, fail_at + 1);
            assert_eq!(r.words, (fail_at + 1) * (fail_at + 2) / 2);
        }
    }

    #[test]
    fn nested_parallel_errors_close_both_scopes() {
        // Outer branch 0 runs an inner composition that charges 1 then
        // 3 rounds and errs in its second branch: both scopes close,
        // the outer one at 1 + max(1, 3) = 4, and outer branch 1 never
        // runs.
        let mut c = ctx();
        c.begin_phase("nested");
        let result = c.parallel([[1, 3], [9, 9]], |ks, c| {
            c.exchange(1);
            c.parallel(ks, |k, c| {
                exchanges(c, k);
                if k == 3 {
                    Err("inner")
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(result, Err("inner"));
        assert!(scope_is_closed(&c));
        let r = c.end_phase();
        assert_eq!(r.rounds, 4, "max of max");
        assert_eq!(r.words, 5);
    }

    #[test]
    #[should_panic(expected = "ParallelEnd without ParallelBegin")]
    fn unbalanced_replayed_parallel_end_panics() {
        let _ = ctx().replay(&[MpcEvent::ParallelEnd]);
    }

    #[test]
    fn fork_replay_matches_direct_execution() {
        // Run the same operation sequence (a) directly on one context
        // and (b) on a fork whose log is replayed onto a second
        // context; the resulting stats and loads must be identical.
        let script = |c: &mut MpcContext| -> Result<(), MpcError> {
            c.begin_phase("batch");
            c.sort(100);
            c.parallel([true, false], |first, c| {
                if first {
                    c.converge_cast(64, 4);
                    c.set_load(c.config().machine_of_vertex(5), 10)
                } else {
                    c.broadcast(8);
                    c.exchange(3);
                    Ok(())
                }
            })?;
            c.gather(16)?;
            c.set_load(c.config().machine_of_vertex(5), 6)?;
            c.set_load(0, 7)?;
            let _ = c.end_phase();
            Ok(())
        };
        let mut direct = ctx();
        script(&mut direct).unwrap();

        let master = ctx();
        let mut fork = master.fork_for_branch();
        script(&mut fork).unwrap();
        let mut replayed = master;
        replayed.replay(&fork.take_log()).unwrap();

        assert_eq!(replayed.stats(), direct.stats());
        assert_eq!(replayed.total_load(), direct.total_load());
        for m in 0..replayed.config().machines() {
            assert_eq!(replayed.load(m), direct.load(m));
        }
    }

    #[test]
    fn fork_starts_with_clean_scope_but_keeps_loads() {
        let mut c = ctx();
        c.set_load(0, 12).unwrap();
        c.begin_phase("outer");
        c.parallel([()], |(), c| {
            let mut fork = c.fork_for_branch();
            assert_eq!(fork.load(0), 12, "loads carry over");
            assert_eq!(fork.total_load(), 12);
            // The fork has no open scope or phase, whatever the
            // master's state: its own compositions start from zero.
            assert!(scope_is_closed(&fork));
            fork.parallel([()], |(), f| {
                f.exchange(1);
                Ok::<_, MpcError>(())
            })?;
            assert!(scope_is_closed(&fork));
            Ok::<_, MpcError>(())
        })
        .unwrap();
        let _ = c.end_phase();
    }

    #[test]
    fn replay_reproduces_errors_at_the_same_point() {
        let cfg = MpcConfig::builder(1024, 0.5)
            .local_capacity(8)
            .machines(4)
            .strict(true)
            .build();
        let master = MpcContext::new(cfg);
        let mut fork = master.fork_for_branch();
        fork.exchange(2);
        let err = fork.set_load(1, 9);
        assert!(matches!(err, Err(MpcError::LocalMemoryExceeded { .. })));
        let log = fork.take_log();
        let mut replayed = master;
        let replay_err = replayed.replay(&log);
        assert!(matches!(
            replay_err,
            Err(MpcError::LocalMemoryExceeded { machine: 1, .. })
        ));
        // Work before the failure point was still charged.
        assert_eq!(replayed.stats().rounds, 1);
    }

    #[test]
    fn replay_does_not_rerecord() {
        let master = ctx();
        let mut fork = master.fork_for_branch();
        fork.exchange(1);
        let log = fork.take_log();
        let mut inner = master.fork_for_branch();
        inner.replay(&log).unwrap();
        // Replaying on a recording context must not duplicate events
        // into its own log.
        assert!(inner.take_log().is_empty());
    }

    #[test]
    fn vertex_load_routes_to_shard() {
        let mut c = MpcContext::new(MpcConfig::builder(100, 0.5).machines(10).build());
        c.set_load(c.config().machine_of_vertex(23), 4).unwrap();
        assert_eq!(c.load(3), 4);
        assert_eq!(c.total_load(), 4);
        c.set_load(c.config().machine_of_vertex(23), 0).unwrap();
        assert_eq!(c.load(3), 0);
    }
}
