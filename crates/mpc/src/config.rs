//! Cluster configuration.

/// Configuration of a simulated MPC cluster for an `n`-vertex problem.
///
/// The paper's regime: local memory `s = Θ(n^φ)` **words** (strongly
/// sublinear), machine count chosen so the cluster can hold the
/// algorithm's `Õ(n)` total state. One word = one `u64`.
///
/// Use [`MpcConfig::builder`] to construct.
///
/// # Examples
///
/// ```
/// use mpc_sim::config::MpcConfig;
///
/// let cfg = MpcConfig::builder(4096, 0.5).build();
/// assert_eq!(cfg.n(), 4096);
/// assert_eq!(cfg.local_capacity(), 64); // 4096^0.5
/// assert!(cfg.machines() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MpcConfig {
    n: usize,
    phi: f64,
    local_capacity: u64,
    machines: usize,
    strict: bool,
}

impl MpcConfig {
    /// Starts building a configuration for an `n`-vertex problem with
    /// memory exponent `φ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < φ < 1` and `n ≥ 2`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — n and φ are construction parameters"
    )]
    pub fn builder(n: usize, phi: f64) -> MpcConfigBuilder {
        assert!(n >= 2, "need at least two vertices, got {n}");
        assert!(
            phi > 0.0 && phi < 1.0,
            "memory exponent must satisfy 0 < φ < 1, got {phi}"
        );
        MpcConfigBuilder {
            n,
            phi,
            local_capacity: None,
            machines: None,
            strict: false,
        }
    }

    /// Number of vertices `n` of the problem instance.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The memory exponent `φ`.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Local memory per machine, in words (`s`).
    pub fn local_capacity(&self) -> u64 {
        self.local_capacity
    }

    /// Number of machines in the cluster.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Whether exceeding the local capacity is a hard error (strict)
    /// or only recorded as a violation (permissive, the default —
    /// useful for measuring high-water marks).
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// `⌈log2 n⌉`, the paper's ubiquitous `log n` factor.
    pub fn log2_n(&self) -> u32 {
        (usize::BITS - (self.n.max(2) - 1).leading_zeros()).max(1)
    }

    /// The machine a vertex's state is sharded to (round-robin).
    pub fn machine_of_vertex(&self, v: u32) -> usize {
        v as usize % self.machines
    }

    /// The round budget `O(1/φ)` used by tests as an upper-bound
    /// sanity check: the depth of a fan-out-`Θ(s)` tree over the
    /// cluster (assuming constant-size tree payloads, the paper's
    /// case), plus a constant. For `s = n^φ` and `Õ(n/s)` machines
    /// this is `Θ(1/φ)`.
    pub fn round_budget_per_primitive(&self) -> u64 {
        let fanout = (self.local_capacity / 8).max(2);
        let mut covered: u64 = 1;
        let mut rounds = 0;
        while covered < self.machines as u64 {
            covered = covered.saturating_mul(1 + fanout);
            rounds += 1;
        }
        rounds + 3
    }
}

mpc_snapshot::persist_struct!(MpcConfig { n, phi, local_capacity, machines, strict } check |c| {
    if c.n < 2 || !(c.phi > 0.0 && c.phi < 1.0) || c.local_capacity < 4 || c.machines < 1 {
        return Err(format!(
            "invalid cluster configuration: n={}, phi={}, s={}, machines={}",
            c.n, c.phi, c.local_capacity, c.machines
        ));
    }
    Ok(())
});

/// Constant slack folded into the default machine count on top of the
/// asymptotic `n · log³ n` budget. The asymptotic budget undercounts
/// the sketch bank's constants — `t = ⌈log n⌉ + 6` independent copies
/// of `~8 · log n` words per vertex is ≈ 2.2× the budget at `n = 256`
/// — so a budget-derived cluster could not hold the standing state of
/// a single connectivity instance. 3× covers the constants through
/// the sizes the experiments run at while staying `Θ(n log³ n / s)`
/// machines asymptotically.
pub const STATE_SLACK: u64 = 3;

/// Builder for [`MpcConfig`].
#[derive(Debug, Clone)]
pub struct MpcConfigBuilder {
    n: usize,
    phi: f64,
    local_capacity: Option<u64>,
    machines: Option<usize>,
    strict: bool,
}

impl MpcConfigBuilder {
    /// Overrides the local memory capacity `s` (default `⌈n^φ⌉`).
    #[expect(
        clippy::disallowed_macros,
        reason = "a capacity below 4 words is a configuration bug"
    )]
    pub fn local_capacity(mut self, words: u64) -> Self {
        assert!(words >= 4, "local capacity must be at least 4 words");
        self.local_capacity = Some(words);
        self
    }

    /// Overrides the machine count (default: enough machines for
    /// [`STATE_SLACK`]` · n · ⌈log2 n⌉³` total words — the paper's
    /// `O(n log³ n)` budget with the sketch bank's constants folded
    /// in).
    #[expect(
        clippy::disallowed_macros,
        reason = "a cluster without machines is a configuration bug"
    )]
    pub fn machines(mut self, machines: usize) -> Self {
        assert!(machines >= 1, "need at least one machine");
        self.machines = Some(machines);
        self
    }

    /// Makes capacity overruns hard errors instead of recorded
    /// violations.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> MpcConfig {
        let local_capacity = self
            .local_capacity
            .unwrap_or_else(|| (self.n as f64).powf(self.phi).ceil() as u64)
            .max(4);
        let log_n = (usize::BITS - (self.n.max(2) - 1).leading_zeros()).max(1) as u64;
        let total_budget = STATE_SLACK * self.n as u64 * log_n * log_n * log_n;
        let machines = self
            .machines
            .unwrap_or_else(|| (total_budget.div_ceil(local_capacity)).max(2) as usize);
        MpcConfig {
            n: self.n,
            phi: self.phi,
            local_capacity,
            machines,
            strict: self.strict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_n_to_phi() {
        let cfg = MpcConfig::builder(1 << 12, 0.5).build();
        assert_eq!(cfg.local_capacity(), 64);
        let cfg = MpcConfig::builder(1 << 12, 0.25).build();
        assert_eq!(cfg.local_capacity(), 8);
    }

    #[test]
    fn machine_count_covers_total_budget_with_slack() {
        let cfg = MpcConfig::builder(1024, 0.5).build();
        let log_n = cfg.log2_n() as u64;
        // The sketch-bank constants need headroom beyond the
        // asymptotic budget (ROADMAP, PR 2 audit).
        assert!(cfg.machines() as u64 * cfg.local_capacity() >= STATE_SLACK * 1024 * log_n.pow(3));
    }

    #[test]
    fn default_cluster_holds_a_sketch_bank_at_n_256() {
        // The concrete PR-2 failure case: n = 256, s = 2^16. The
        // standing connectivity state is ≈ 283k words (t = 14 copies
        // × ~79 words/vertex × 256 vertices); the slack-provisioned
        // default must cover it where the bare budget (2 machines)
        // could not.
        let cfg = MpcConfig::builder(256, 0.5).local_capacity(1 << 16).build();
        assert!(cfg.machines() as u64 * cfg.local_capacity() >= 283_000);
    }

    #[test]
    fn overrides_respected() {
        let cfg = MpcConfig::builder(100, 0.3)
            .local_capacity(128)
            .machines(7)
            .strict(true)
            .build();
        assert_eq!(cfg.local_capacity(), 128);
        assert_eq!(cfg.machines(), 7);
        assert!(cfg.strict());
    }

    #[test]
    fn vertex_sharding_is_total() {
        let cfg = MpcConfig::builder(100, 0.5).machines(7).build();
        for v in 0..100u32 {
            assert!(cfg.machine_of_vertex(v) < 7);
        }
    }

    #[test]
    fn log2_n_values() {
        assert_eq!(MpcConfig::builder(2, 0.5).build().log2_n(), 1);
        assert_eq!(MpcConfig::builder(1024, 0.5).build().log2_n(), 10);
        assert_eq!(MpcConfig::builder(1025, 0.5).build().log2_n(), 11);
    }

    #[test]
    #[should_panic(expected = "memory exponent")]
    fn bad_phi_panics() {
        let _ = MpcConfig::builder(100, 1.5);
    }

    #[test]
    fn round_budget_scales_with_inverse_phi() {
        let tight = MpcConfig::builder(1024, 0.2).build();
        let loose = MpcConfig::builder(1024, 0.8).build();
        assert!(tight.round_budget_per_primitive() > loose.round_budget_per_primitive());
    }
}
