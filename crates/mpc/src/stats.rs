//! Round, communication, and memory accounting.

use mpc_snapshot::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;

/// The kind of MPC primitive a round was charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Synchronous point-to-point exchange.
    Exchange,
    /// Broadcast tree (coordinator → all machines).
    Broadcast,
    /// Converge-cast / aggregation tree (all machines → coordinator).
    Aggregate,
    /// Distributed sort.
    Sort,
    /// Coordinator gather of a small payload.
    Gather,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Op::Exchange => "exchange",
            Op::Broadcast => "broadcast",
            Op::Aggregate => "aggregate",
            Op::Sort => "sort",
            Op::Gather => "gather",
        };
        f.write_str(s)
    }
}

/// Cumulative counters for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total synchronous rounds charged.
    pub rounds: u64,
    /// Total words moved between machines.
    pub words_communicated: u64,
    /// Maximum words communicated in any single charged round.
    pub peak_round_words: u64,
    /// Rounds per primitive kind.
    pub rounds_by_op: BTreeMap<Op, u64>,
    /// High-water mark of any single machine's local store, in words.
    pub peak_machine_words: u64,
    /// High-water mark of the cluster-wide total store, in words.
    pub peak_total_words: u64,
    /// Capacity violations observed in permissive mode:
    /// `(machine, words, capacity)`.
    pub violations: Vec<(usize, u64, u64)>,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Charges `rounds` rounds moving `words` total words to
    /// primitive `op`. The per-round word volume is attributed evenly.
    pub fn charge(&mut self, op: Op, rounds: u64, words: u64) {
        self.rounds += rounds;
        self.words_communicated += words;
        *self.rounds_by_op.entry(op).or_insert(0) += rounds;
        if rounds > 0 {
            self.peak_round_words = self.peak_round_words.max(words.div_ceil(rounds));
        }
    }

    /// Records a memory observation.
    pub fn observe_memory(&mut self, machine_words: u64, total_words: u64) {
        self.peak_machine_words = self.peak_machine_words.max(machine_words);
        self.peak_total_words = self.peak_total_words.max(total_words);
    }

    /// Records a capacity violation (permissive mode).
    pub fn record_violation(&mut self, machine: usize, words: u64, capacity: u64) {
        self.violations.push((machine, words, capacity));
    }

    /// A multi-line human-readable account of the run: totals, the
    /// per-primitive round breakdown, and the memory high-water
    /// marks. Useful at the end of an experiment or example run.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpc_sim::stats::{Op, Stats};
    ///
    /// let mut s = Stats::new();
    /// s.charge(Op::Sort, 4, 100);
    /// s.observe_memory(10, 50);
    /// let text = s.summary();
    /// assert!(text.contains("sort"));
    /// assert!(text.contains("4"));
    /// ```
    pub fn summary(&self) -> String {
        let mut out = format!(
            "rounds: {} total, {} words communicated (peak {} words/round)\n",
            self.rounds, self.words_communicated, self.peak_round_words
        );
        for (op, r) in &self.rounds_by_op {
            out.push_str(&format!("  {op:>9}: {r} rounds\n"));
        }
        out.push_str(&format!(
            "memory: peak {} words/machine, peak {} words total",
            self.peak_machine_words, self.peak_total_words
        ));
        if !self.violations.is_empty() {
            out.push_str(&format!(
                "\ncapacity violations: {} (permissive mode)",
                self.violations.len()
            ));
        }
        out
    }
}

/// Rounds and communication consumed by one phase (one update batch or
/// one query), as reported by
/// [`MpcContext::end_phase`](crate::context::MpcContext::end_phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Label passed to `begin_phase`.
    pub label: String,
    /// Rounds charged during the phase.
    pub rounds: u64,
    /// Words communicated during the phase.
    pub words: u64,
}

impl std::fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase {}: {} rounds, {} words",
            self.label, self.rounds, self.words
        )
    }
}

/// Rounds, communication, and audit counters one maintainer consumed
/// processing one update batch — the unified per-batch report every
/// implementation of the `Maintain` trait (in `mpc-stream-core`)
/// returns (the quantities Theorem 1.1 speaks about, plus the
/// failure/violation envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Name of the maintainer that produced this report.
    pub maintainer: &'static str,
    /// Updates in the batch.
    pub updates: usize,
    /// Rounds charged while the batch was processed.
    pub rounds: u64,
    /// Words communicated while the batch was processed.
    pub words: u64,
    /// `ℓ0`-sampler failures the batch absorbed (each retried on an
    /// independent sketch copy).
    pub l0_failures: u64,
    /// Capacity violations recorded during the batch (permissive
    /// mode; strict mode errors instead).
    pub capacity_violations: u64,
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} updates in {} rounds, {} words ({} l0 fails, {} violations)",
            self.maintainer,
            self.updates,
            self.rounds,
            self.words,
            self.l0_failures,
            self.capacity_violations
        )
    }
}

/// Delta-measures one batch against a context's cumulative counters:
/// [`BatchAudit::begin`] snapshots rounds/words/violations, and
/// [`BatchAudit::finish`] turns the deltas into a [`BatchReport`].
/// Works inside [`MpcContext::parallel`](crate::context::MpcContext::parallel)
/// as long as begin/finish bracket a single branch's work.
#[derive(Debug, Clone, Copy)]
pub struct BatchAudit {
    rounds: u64,
    words: u64,
    violations: usize,
}

impl BatchAudit {
    /// Snapshots the context's counters.
    pub fn begin(ctx: &crate::context::MpcContext) -> Self {
        BatchAudit {
            rounds: ctx.stats().rounds,
            words: ctx.stats().words_communicated,
            violations: ctx.stats().violations.len(),
        }
    }

    /// Produces the report for everything charged since `begin`.
    pub fn finish(
        self,
        maintainer: &'static str,
        updates: usize,
        l0_failures: u64,
        ctx: &crate::context::MpcContext,
    ) -> BatchReport {
        BatchReport {
            maintainer,
            updates,
            rounds: ctx.stats().rounds - self.rounds,
            words: ctx.stats().words_communicated - self.words,
            l0_failures,
            capacity_violations: (ctx.stats().violations.len() - self.violations) as u64,
        }
    }
}

/// One maintainer's slice of a `Session`'s lifetime consumption:
/// ingest and query costs are tracked separately, so the round
/// asymmetry the paper measures (free maintained answers vs
/// recompute-on-read baselines) is visible per structure.
#[derive(Debug, Clone)]
pub struct MaintainerStats {
    /// The maintainer's stable name.
    pub name: &'static str,
    /// Bytes this maintainer's state section occupied in the most
    /// recent `Session::checkpoint` (0 until one is taken). Host-side
    /// observability, not stream state: a session that never
    /// checkpoints and one that checkpoints along the way must stay
    /// `==`, so equality excludes this field.
    pub checkpoint_bytes: u64,
    /// Batches this maintainer ingested.
    pub batches: u64,
    /// Rounds charged to this maintainer's batch ingestion
    /// (serial-equivalent; the session-level rollup max-composes).
    pub rounds: u64,
    /// Words this maintainer's ingestion communicated.
    pub words: u64,
    /// Queries answered through the query plane.
    pub queries: u64,
    /// Rounds charged to this maintainer's query answers.
    pub query_rounds: u64,
    /// Words this maintainer's query answers communicated.
    pub query_words: u64,
    /// `ℓ0`-sampler failures absorbed.
    pub l0_failures: u64,
    /// Capacity violations attributed to this maintainer (permissive
    /// mode; strict mode errors instead).
    pub capacity_violations: u64,
    /// Standing state at the last audit, in words.
    pub state_words: u64,
    /// High-water mark of the standing state, in words.
    pub peak_state_words: u64,
}

impl MaintainerStats {
    /// Creates a zeroed entry for `name`.
    pub fn new(name: &'static str) -> Self {
        MaintainerStats {
            name,
            checkpoint_bytes: 0,
            batches: 0,
            rounds: 0,
            words: 0,
            queries: 0,
            query_rounds: 0,
            query_words: 0,
            l0_failures: 0,
            capacity_violations: 0,
            state_words: 0,
            peak_state_words: 0,
        }
    }
}

// Equality deliberately ignores `checkpoint_bytes`: it records what the
// *host* did (how large the last snapshot section was), not what the
// *stream* did, and the crash-recovery equivalence tests compare the
// stats of a checkpointing run against an uninterrupted one.
impl PartialEq for MaintainerStats {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.batches == other.batches
            && self.rounds == other.rounds
            && self.words == other.words
            && self.queries == other.queries
            && self.query_rounds == other.query_rounds
            && self.query_words == other.query_words
            && self.l0_failures == other.l0_failures
            && self.capacity_violations == other.capacity_violations
            && self.state_words == other.state_words
            && self.peak_state_words == other.peak_state_words
    }
}

impl Eq for MaintainerStats {}

/// Rollup of a `Session`'s lifetime consumption across all batches
/// and maintainers, including the per-maintainer breakdown
/// ([`SessionStats::per_maintainer`], indexed by registration order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Chunked batches the session fanned out.
    pub batches: u64,
    /// Updates ingested (after normalization).
    pub updates: u64,
    /// Per-maintainer batch applications (`batches ×` registered
    /// maintainers, minus skipped ones).
    pub maintainer_batches: u64,
    /// Session-level rounds: maintainers run in parallel on disjoint
    /// machine groups, so each batch contributes its *maximum*
    /// maintainer's rounds.
    pub rounds: u64,
    /// Total words communicated (all maintainers; it all moves).
    pub words: u64,
    /// `ℓ0`-sampler failures absorbed across all maintainers.
    pub l0_failures: u64,
    /// Capacity violations recorded (permissive mode).
    pub capacity_violations: u64,
    /// Worst single batch's session-level round count.
    pub max_batch_rounds: u64,
    /// Queries answered through the query plane (all maintainers).
    pub queries: u64,
    /// Session-level query rounds (`ask_all` fan-outs max-compose,
    /// like batches).
    pub query_rounds: u64,
    /// Words communicated answering queries.
    pub query_words: u64,
    /// Per-maintainer breakdown, indexed by registration order
    /// (`MaintainerId`).
    pub per_maintainer: Vec<MaintainerStats>,
}

impl SessionStats {
    /// Opens a per-maintainer entry; called once per registration, in
    /// registration order.
    pub fn register_maintainer(&mut self, name: &'static str) {
        self.per_maintainer.push(MaintainerStats::new(name));
    }

    /// Folds one maintainer's per-batch report into the rollup
    /// (failure/violation envelope plus the per-maintainer breakdown;
    /// session-level rounds and words are recorded once per chunk via
    /// [`SessionStats::record_chunk`]).
    pub fn absorb(&mut self, id: usize, report: &BatchReport) {
        self.maintainer_batches += 1;
        self.l0_failures += report.l0_failures;
        self.capacity_violations += report.capacity_violations;
        if let Some(m) = self.per_maintainer.get_mut(id) {
            m.batches += 1;
            m.rounds += report.rounds;
            m.words += report.words;
            m.l0_failures += report.l0_failures;
            m.capacity_violations += report.capacity_violations;
        }
    }

    /// Folds the rounds and words of one maintainer's answer into the
    /// rollup. The session-level `query_rounds` is advanced by the
    /// caller (via [`SessionStats::record_query_phase`]) so fan-outs
    /// max-compose.
    pub fn absorb_query(&mut self, id: usize, rounds: u64, words: u64) {
        self.queries += 1;
        if let Some(m) = self.per_maintainer.get_mut(id) {
            m.queries += 1;
            m.query_rounds += rounds;
            m.query_words += words;
        }
    }

    /// Records one query phase's session-level consumption (for an
    /// `ask_all`, the max-composed rounds of the fan-out).
    pub fn record_query_phase(&mut self, rounds: u64, words: u64) {
        self.query_rounds += rounds;
        self.query_words += words;
    }

    /// Records one maintainer's standing state as observed by the
    /// capacity audit.
    pub fn observe_state(&mut self, id: usize, words: u64) {
        if let Some(m) = self.per_maintainer.get_mut(id) {
            m.state_words = words;
            m.peak_state_words = m.peak_state_words.max(words);
        }
    }

    /// Records a capacity violation attributed to one maintainer's
    /// machine group (permissive mode).
    pub fn record_group_violation(&mut self, id: usize) {
        self.capacity_violations += 1;
        if let Some(m) = self.per_maintainer.get_mut(id) {
            m.capacity_violations += 1;
        }
    }

    /// Records one fanned-out chunk's session-level consumption.
    pub fn record_chunk(&mut self, updates: usize, rounds: u64, words: u64) {
        self.batches += 1;
        self.updates += updates as u64;
        self.rounds += rounds;
        self.words += words;
        self.max_batch_rounds = self.max_batch_rounds.max(rounds);
    }

    /// A human-readable account of the session, including the
    /// per-maintainer ingest/query/state breakdown.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "session: {} updates in {} batches across {} maintainer applications\n\
             rounds: {} total ({} worst batch), {} words communicated\n\
             queries: {} answered in {} rounds, {} words\n\
             audit: {} l0 fails, {} capacity violations",
            self.updates,
            self.batches,
            self.maintainer_batches,
            self.rounds,
            self.max_batch_rounds,
            self.words,
            self.queries,
            self.query_rounds,
            self.query_words,
            self.l0_failures,
            self.capacity_violations
        );
        for m in &self.per_maintainer {
            out.push_str(&format!(
                "\n  {:>28}: {} batches ({} rounds, {} words) | {} queries \
                 ({} rounds, {} words) | state {} words (peak {}) | {} l0 fails, {} violations",
                m.name,
                m.batches,
                m.rounds,
                m.words,
                m.queries,
                m.query_rounds,
                m.query_words,
                m.state_words,
                m.peak_state_words,
                m.l0_failures,
                m.capacity_violations
            ));
            if m.checkpoint_bytes > 0 {
                out.push_str(&format!(" | ckpt {} bytes", m.checkpoint_bytes));
            }
        }
        out
    }
}

// ----- persistence ----------------------------------------------------
//
// Accounting state travels with a checkpoint so a restored session
// resumes with the exact round/word/memory ledger the crashed one had.
// `MaintainerStats::name` is a `&'static str` a decoder cannot
// fabricate, so it is *not* serialized: `Session::restore` re-binds
// each entry's name from the restored maintainer's `Maintain::name()`.

// By hand: a tagged enum, not a field list.
impl Persist for Op {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            Op::Exchange => 0,
            Op::Broadcast => 1,
            Op::Aggregate => 2,
            Op::Sort => 3,
            Op::Gather => 4,
        });
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(Op::Exchange),
            1 => Ok(Op::Broadcast),
            2 => Ok(Op::Aggregate),
            3 => Ok(Op::Sort),
            4 => Ok(Op::Gather),
            t => Err(SnapshotError::Corrupt(format!("invalid Op tag {t}"))),
        }
    }
}

mpc_snapshot::persist_struct!(Stats {
    rounds,
    words_communicated,
    peak_round_words,
    rounds_by_op,
    peak_machine_words,
    peak_total_words,
    violations,
});

// By hand: `name` is rebound on restore, not read (see above).
impl Persist for MaintainerStats {
    fn save(&self, w: &mut SnapshotWriter) {
        self.batches.save(w);
        self.rounds.save(w);
        self.words.save(w);
        self.queries.save(w);
        self.query_rounds.save(w);
        self.query_words.save(w);
        self.l0_failures.save(w);
        self.capacity_violations.save(w);
        self.state_words.save(w);
        self.peak_state_words.save(w);
        self.checkpoint_bytes.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MaintainerStats {
            name: "",
            batches: Persist::load(r)?,
            rounds: Persist::load(r)?,
            words: Persist::load(r)?,
            queries: Persist::load(r)?,
            query_rounds: Persist::load(r)?,
            query_words: Persist::load(r)?,
            l0_failures: Persist::load(r)?,
            capacity_violations: Persist::load(r)?,
            state_words: Persist::load(r)?,
            peak_state_words: Persist::load(r)?,
            checkpoint_bytes: Persist::load(r)?,
        })
    }
}

mpc_snapshot::persist_struct!(SessionStats {
    batches,
    updates,
    maintainer_batches,
    rounds,
    words,
    l0_failures,
    capacity_violations,
    max_batch_rounds,
    queries,
    query_rounds,
    query_words,
    per_maintainer,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut s = Stats::new();
        s.charge(Op::Broadcast, 3, 30);
        s.charge(Op::Sort, 2, 100);
        assert_eq!(s.rounds, 5);
        assert_eq!(s.words_communicated, 130);
        assert_eq!(s.rounds_by_op[&Op::Broadcast], 3);
        assert_eq!(s.rounds_by_op[&Op::Sort], 2);
        assert_eq!(s.peak_round_words, 50);
    }

    #[test]
    fn memory_high_water_marks() {
        let mut s = Stats::new();
        s.observe_memory(10, 100);
        s.observe_memory(5, 200);
        s.observe_memory(20, 50);
        assert_eq!(s.peak_machine_words, 20);
        assert_eq!(s.peak_total_words, 200);
    }

    #[test]
    fn violations_recorded() {
        let mut s = Stats::new();
        s.record_violation(3, 40, 32);
        assert_eq!(s.violations, vec![(3, 40, 32)]);
    }

    #[test]
    fn phase_report_displays() {
        let r = PhaseReport {
            label: "batch-7".into(),
            rounds: 4,
            words: 99,
        };
        assert_eq!(format!("{r}"), "phase batch-7: 4 rounds, 99 words");
    }

    #[test]
    fn batch_audit_reports_deltas() {
        use crate::config::MpcConfig;
        use crate::context::MpcContext;
        let mut ctx = MpcContext::new(
            MpcConfig::builder(64, 0.5)
                .local_capacity(16)
                .machines(4)
                .build(),
        );
        ctx.exchange(3);
        let audit = BatchAudit::begin(&ctx);
        ctx.exchange(5);
        ctx.exchange(2);
        ctx.set_load(0, 20).unwrap(); // permissive violation
        let r = audit.finish("test", 4, 1, &ctx);
        assert_eq!(r.maintainer, "test");
        assert_eq!(r.updates, 4);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.words, 7);
        assert_eq!(r.l0_failures, 1);
        assert_eq!(r.capacity_violations, 1);
        assert!(r.to_string().contains("test"));
    }

    #[test]
    fn session_stats_rollup() {
        let mut s = SessionStats::default();
        s.register_maintainer("a");
        let r = BatchReport {
            maintainer: "a",
            updates: 3,
            rounds: 7,
            words: 10,
            l0_failures: 2,
            capacity_violations: 1,
        };
        s.absorb(0, &r);
        s.absorb(0, &r);
        s.record_chunk(3, 9, 25);
        s.record_chunk(2, 4, 5);
        assert_eq!(s.maintainer_batches, 2);
        assert_eq!(s.l0_failures, 4);
        assert_eq!(s.capacity_violations, 2);
        assert_eq!(s.batches, 2);
        assert_eq!(s.updates, 5);
        assert_eq!(s.rounds, 13);
        assert_eq!(s.max_batch_rounds, 9);
        let a = &s.per_maintainer[0];
        assert_eq!((a.batches, a.rounds, a.words), (2, 14, 20));
        assert_eq!((a.l0_failures, a.capacity_violations), (4, 2));
        let text = s.summary();
        assert!(text.contains("5 updates"));
        assert!(text.contains("9 worst batch"));
        assert!(text.contains("a: 2 batches"));
    }

    #[test]
    fn query_reports_roll_into_the_breakdown() {
        let mut s = SessionStats::default();
        s.register_maintainer("conn");
        s.register_maintainer("agm");
        s.absorb_query(0, 1, 2);
        s.absorb_query(1, 9, 40);
        // The fan-out max-composes at the session level.
        s.record_query_phase(9, 42);
        assert_eq!(s.queries, 2);
        assert_eq!(s.query_rounds, 9);
        assert_eq!(s.per_maintainer[0].query_rounds, 1);
        assert_eq!(s.per_maintainer[1].query_rounds, 9);
        s.observe_state(1, 77);
        s.observe_state(1, 50);
        assert_eq!(s.per_maintainer[1].state_words, 50);
        assert_eq!(s.per_maintainer[1].peak_state_words, 77);
        s.record_group_violation(1);
        assert_eq!(s.capacity_violations, 1);
        assert_eq!(s.per_maintainer[1].capacity_violations, 1);
        assert!(s.summary().contains("agm"));
    }

    #[test]
    fn op_display() {
        assert_eq!(format!("{}", Op::Sort), "sort");
        assert_eq!(format!("{}", Op::Gather), "gather");
        assert_eq!(format!("{}", Op::Exchange), "exchange");
        assert_eq!(format!("{}", Op::Broadcast), "broadcast");
        assert_eq!(format!("{}", Op::Aggregate), "aggregate");
    }

    #[test]
    fn summary_reports_all_sections() {
        let mut s = Stats::new();
        s.charge(Op::Broadcast, 2, 10);
        s.charge(Op::Gather, 1, 8);
        s.observe_memory(16, 128);
        let text = s.summary();
        assert!(text.contains("3 total"));
        assert!(text.contains("broadcast: 2 rounds"));
        assert!(text.contains("gather: 1 rounds"));
        assert!(text.contains("peak 16 words/machine"));
        assert!(!text.contains("violations"));
        s.record_violation(0, 20, 16);
        assert!(s.summary().contains("capacity violations: 1"));
    }
}
