//! The batch-dynamic connectivity algorithm (paper Sections 4–6).

use mpc_etf::{DistEtf, TourId};
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::oracle::UnionFind;
use mpc_graph::update::{Batch, Update};
use mpc_sim::{MpcContext, MpcError, MpcStreamError};
use mpc_sketch::cascade::{self, Untouched};
use mpc_sketch::{MergeScratch, SketchBank};

/// Tuning knobs for [`Connectivity`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectivityConfig {
    /// Independent sketch copies per vertex (`t` in the paper;
    /// `Θ(log n)`). `None` picks `⌈log2 n⌉ + 6`.
    pub sketch_copies: Option<usize>,
}

/// The dynamic-graph contract violation every connectivity structure
/// reports: a deletion of an absent edge, a duplicate insertion, or
/// an endpoint outside the vertex set.
pub(crate) fn invalid_update(e: Edge) -> MpcStreamError {
    MpcStreamError::InvalidBatch(format!("invalid update for edge {e}"))
}

/// Batch-dynamic connectivity with an explicitly maintained spanning
/// forest (paper Theorem 6.7). See the [crate docs](crate) for the
/// protocol outline and an example.
#[derive(Debug, Clone)]
pub struct Connectivity {
    n: usize,
    comp: Vec<VertexId>,
    etf: DistEtf,
    bank: SketchBank,
    live_edges: usize,
    /// Cumulative `ℓ0`-sampler query failures (the `Fail` outcomes the
    /// retry levels absorb) — surfaced so the failure-probability
    /// envelope is observable instead of silently retried away.
    sampler_failures: u64,
    /// The per-machine loads [`Connectivity::account`]'s walk would
    /// report, kept between batches so a batch charges only its delta.
    /// Derived state: never persisted, absent after `new`, `from_graph`
    /// and a restore, and emptied by any `Err`.
    loads: LoadCache,
}

/// The cached per-machine load vector of a [`Connectivity`]; `None`
/// until a batch succeeds. Its snapshot encoding is empty, so a
/// restored structure rebuilds it with one full walk and the snapshot
/// bytes do not depend on it.
#[derive(Debug, Clone, Default)]
struct LoadCache(Option<Vec<u64>>);

impl mpc_snapshot::Persist for LoadCache {
    fn save(&self, _: &mut mpc_snapshot::SnapshotWriter) {}
    fn load(_: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        Ok(LoadCache(None))
    }
}

impl Connectivity {
    /// Creates the structure for an empty graph on `n` vertices (the
    /// paper's starting state). All randomness derives from `seed`.
    pub fn new(n: usize, cfg: ConnectivityConfig, seed: u64) -> Self {
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1) as usize;
        let copies = cfg.sketch_copies.unwrap_or(log_n + 6);
        Connectivity {
            n,
            comp: (0..n as u32).collect(),
            etf: DistEtf::new(n),
            bank: SketchBank::new(n, copies, seed),
            live_edges: 0,
            sampler_failures: 0,
            loads: LoadCache::default(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of live edges the sketches currently summarize.
    pub fn live_edge_count(&self) -> usize {
        self.live_edges
    }

    /// Cumulative `ℓ0`-sampler failures observed across all queries
    /// (each was absorbed by a retry at the next independent sketch
    /// copy, per Lemma 3.1's `O(log 1/δ)` amplification).
    pub fn sampler_failure_count(&self) -> u64 {
        self.sampler_failures
    }

    /// The component id of `v` (the smallest vertex id in `v`'s
    /// component). Constant query time: the labelling is maintained.
    pub fn component_of(&self, v: VertexId) -> VertexId {
        self.comp[v as usize]
    }

    /// Whether `u` and `v` are currently connected.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// The full component labelling (index = vertex).
    pub fn component_labels(&self) -> &[VertexId] {
        &self.comp
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        crate::query::canonical_component_count(&self.comp) as usize
    }

    /// The maintained spanning forest. Constant query time
    /// (Theorem 1.1: the forest is maintained explicitly).
    pub fn spanning_forest(&self) -> Vec<Edge> {
        self.etf.forest_edges().collect()
    }

    /// Direct access to the Euler-tour forest (used by the MSF and
    /// experiment layers).
    pub fn etf(&self) -> &DistEtf {
        &self.etf
    }

    /// Total words of state (component ids + forest + sketches) —
    /// the quantity Theorem 1.1 bounds by `O(n log³ n)`.
    pub fn words(&self) -> u64 {
        self.n as u64 + self.etf.words() + self.bank.words()
    }

    /// Reports the per-machine sharded footprint into the context's
    /// memory accounting (vertex state on the vertex's shard, edge
    /// state on the smaller endpoint's shard), from a full `O(n +
    /// forest)` walk of the structure. [`Connectivity::apply_batch`]
    /// reports the same loads, in the same `set_load` order, from a
    /// cached vector it moves by each batch's delta; this walk is that
    /// cache's reference and its rebuild.
    ///
    /// # Errors
    ///
    /// Propagates strict-mode capacity violations.
    pub fn account(&self, ctx: &mut MpcContext) -> Result<(), MpcError> {
        set_loads(&self.machine_loads(ctx), ctx)
    }

    /// The walk behind [`Connectivity::account`]. Only the machines
    /// hosting vertex shards can hold state (`machine_of_vertex` maps
    /// into `0..min(n, machines)`).
    fn machine_loads(&self, ctx: &MpcContext) -> Vec<u64> {
        let mut loads = vec![0u64; ctx.config().machines().min(self.n)];
        let per_vertex_sketch = self.bank.words_per_vertex();
        for v in 0..self.n as u32 {
            let m = ctx.config().machine_of_vertex(v);
            loads[m] += 2; // component id + tour id
            if self.bank.is_materialized(v) {
                loads[m] += per_vertex_sketch;
            }
        }
        for e in self.etf.forest_edges() {
            loads[ctx.config().machine_of_vertex(e.u())] += FOREST_EDGE_WORDS;
        }
        loads
    }

    /// Bootstraps the structure from an arbitrary starting graph —
    /// the paper's pre-computation phase (end of Section 1.1): run a
    /// known static algorithm once (`O(log n)` rounds, here the
    /// [`mpc_sketch::cascade`] Borůvka over the freshly built
    /// sketches), install its spanning forest through `batch_join`s,
    /// and continue dynamically.
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::InvalidBatch`] on an endpoint outside
    ///   `[0, n)` or a repeated edge, before any edge is written to
    ///   the sketches (the contract of [`Connectivity::apply_batch`]).
    /// * Resource violations, propagated.
    pub fn from_graph(
        n: usize,
        cfg: ConnectivityConfig,
        seed: u64,
        edges: impl IntoIterator<Item = Edge>,
        ctx: &mut MpcContext,
    ) -> Result<Self, MpcStreamError> {
        let mut conn = Connectivity::new(n, cfg, seed);
        // Load every edge into the sketches (one routing round: the
        // edges arrive distributed, each machine ingests its own).
        ctx.exchange(1);
        let loaded = crate::simple_graph_in(edges, n)?;
        conn.bank.update_edges(loaded.iter().map(|&e| (e, 1)));
        conn.live_edges = loaded.len();
        // Static Borůvka, Θ(log n) levels, each a converge-cast + a
        // forest splice. A level can accept up to n/2 edges — more
        // than one coordinator holds at small s — so it splices in
        // machine-sized chunks (~6 words of plan per edge).
        let chunk = (ctx.config().local_capacity() / 8).max(1) as usize;
        let mut uf = UnionFind::new(n);
        let mut spliced = Ok(());
        let (bank, etf) = (&conn.bank, &mut conn.etf);
        conn.sampler_failures += cascade::run(
            bank,
            &mut uf,
            Untouched::Empty,
            |members, _, s| {
                bank.merge_copy_into(members, s);
            },
            |e| Some((e.u(), e.v())),
            |_, accepted| {
                ctx.converge_cast(n as u64, bank.words_per_copy());
                for part in accepted.chunks(chunk) {
                    if spliced.is_ok() {
                        spliced = etf.batch_join(part, ctx).map(drop);
                    }
                }
            },
        );
        spliced?;
        conn.comp = uf.min_labels();
        ctx.sort(n as u64);
        conn.account(ctx)?;
        Ok(conn)
    }

    // ----- updates -------------------------------------------------

    /// Processes one update batch in `O(1/φ)` rounds (Theorem 6.7).
    /// Insertions are applied before deletions, after cancelling
    /// updates that negate each other inside the batch (the paper's
    /// WLOG in Section 1.2).
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::Capacity`] if a batch structure exceeds the
    ///   coordinator capacity (batch too large for `s`).
    /// * [`MpcStreamError::InvalidBatch`] if the batch violates
    ///   the simple-graph contract.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        // The cached loads leave before anything can fail and come
        // back only with `Ok`, so an `Err` leaves the cache empty.
        let cached = self.loads.0.take();
        let (ins, del) = self.normalize(batch)?;
        // Every contract check runs before the first mutation, so a
        // rejected batch leaves sketches, forest and labels untouched.
        if let Some(&dup) = ins.iter().find(|&&e| self.etf.contains_edge(e)) {
            return Err(invalid_update(dup));
        }
        if self.live_edges + ins.len() < del.len() {
            return Err(invalid_update(del[0]));
        }
        // Insertions add only edges of `ins`, so the tree edges among
        // the deletions are known now; their split gathers 4 words each.
        let tree: Vec<Edge> = del
            .iter()
            .copied()
            .filter(|&e| self.etf.contains_edge(e))
            .collect();
        ctx.ensure_batch_fits(4 * tree.len() as u64)?;
        let mut loads = match cached {
            Some(loads) if loads.len() == ctx.config().machines().min(self.n) => loads,
            _ => self.machine_loads(ctx),
        };
        if !ins.is_empty() {
            self.insert_edges(&ins, &mut loads, ctx)?;
        }
        if !del.is_empty() {
            self.delete_edges(&del, &tree, &mut loads, ctx)?;
        }
        #[expect(
            clippy::disallowed_macros,
            reason = "a debug_assert!, which clippy reads as the assert! it expands to"
        )]
        {
            debug_assert!(
                loads == self.machine_loads(ctx),
                "cached machine loads drifted from the full walk"
            );
        }
        set_loads(&loads, ctx)?;
        self.loads.0 = Some(loads);
        Ok(())
    }

    /// Processes a single update (the Section 4/5 streaming
    /// algorithm is the batch algorithm at `k = 1`).
    ///
    /// # Errors
    ///
    /// As [`Connectivity::apply_batch`].
    pub fn apply_update(
        &mut self,
        update: Update,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.apply_batch(&Batch::from_updates(vec![update]), ctx)
    }

    /// Computes the net effect of a batch: an edge toggled an even
    /// number of times is a no-op; odd, its final operation wins.
    /// Survivors keep the arrival order of their final operations.
    /// One sort of `(edge, arrival index)` groups each edge's updates
    /// into a run in arrival order.
    fn normalize(&self, batch: &Batch) -> Result<(Vec<Edge>, Vec<Edge>), MpcStreamError> {
        let mut runs: Vec<(Edge, u32)> = Vec::with_capacity(batch.len());
        for (i, u) in batch.iter().enumerate() {
            let e = u.edge();
            if (e.v() as usize) >= self.n {
                return Err(invalid_update(e));
            }
            runs.push((e, i as u32));
        }
        runs.sort_unstable();
        let mut survives = vec![false; batch.len()];
        for run in runs.chunk_by(|a, b| a.0 == b.0) {
            if run.len() % 2 == 1 {
                survives[run[run.len() - 1].1 as usize] = true;
            }
        }
        let mut ins = Vec::new();
        let mut del = Vec::new();
        for (u, _) in batch.iter().zip(survives).filter(|&(_, keep)| keep) {
            match u {
                Update::Insert(e) => ins.push(e),
                Update::Delete(e) => del.push(e),
            }
        }
        Ok((ins, del))
    }

    /// Adds to `loads` the sketch column of every endpoint of `edges`
    /// that the sketch write is about to materialize — call it just
    /// before that write.
    fn charge_fresh_columns(&self, edges: &[Edge], loads: &mut [u64], ctx: &MpcContext) {
        let mut fresh: Vec<VertexId> = edges
            .iter()
            .flat_map(|e| [e.u(), e.v()])
            .filter(|&v| !self.bank.is_materialized(v))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        for v in fresh {
            loads[ctx.config().machine_of_vertex(v)] += self.bank.words_per_vertex();
        }
    }

    /// Section 6.1: batch insertions.
    fn insert_edges(
        &mut self,
        edges: &[Edge],
        loads: &mut [u64],
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        let k = edges.len() as u64;
        // Route each update to its endpoints' shard machines (one
        // point-to-point round) plus O(1) control words on the
        // broadcast tree; every machine updates its own sketches.
        ctx.exchange(4 * k);
        ctx.broadcast(2);
        // The coordinator gathers the endpoints' component ids, and
        // `batch_join` builds the auxiliary graph H over their tours
        // (Claim 6.1: O(k) nodes, fits one machine) and splices along
        // its spanning forest F_H. Both gathers can fail, so they run
        // ahead of the sketch writes (which charge nothing themselves).
        ctx.gather(2 * k)?;
        let f_h = self.etf.batch_join(edges, ctx)?;
        charge_forest(&f_h, loads, ctx, |m, w| m + w);
        self.charge_fresh_columns(edges, loads, ctx);
        self.bank.update_edges(edges.iter().map(|&e| (e, 1)));
        self.live_edges += edges.len();
        // Each merged group takes its tour's label. Merging g
        // components relabels g − 1 of them, one per F_H edge: the map
        // is broadcast and applied to the merged tours' members only —
        // O(affected) work, not O(n).
        if !f_h.is_empty() {
            ctx.sort(2 * f_h.len() as u64);
            ctx.broadcast(2);
            self.etf
                .label_tours(f_h.iter().map(|e| self.etf.tour_of(e.u())), &mut self.comp);
        }
        Ok(())
    }

    /// Section 6.3: batch deletions; `tree` holds those of `edges` that
    /// are forest edges. `apply_batch` has checked the batch against
    /// the live-edge count and `tree` against the machine, so neither
    /// gather can fail.
    fn delete_edges(
        &mut self,
        edges: &[Edge],
        tree: &[Edge],
        loads: &mut [u64],
        ctx: &mut MpcContext,
    ) -> Result<(), MpcError> {
        let k = edges.len() as u64;
        ctx.exchange(4 * k);
        ctx.broadcast(2);
        self.charge_fresh_columns(edges, loads, ctx);
        self.bank.update_edges(edges.iter().map(|&e| (e, -1)));
        self.live_edges -= edges.len();
        // Non-tree deletions need nothing further.
        if tree.is_empty() {
            return Ok(());
        }
        // Split the tours along the deleted tree edges and capture
        // what the search and the relabel need of each piece before
        // the replacement join renames tours.
        let tours = self.etf.try_batch_split(tree, ctx)?;
        charge_forest(tree, loads, ctx, |m, w| m - w);
        let split = self.capture_pieces(&tours);
        // Replacement-edge search (Borůvka over the pieces). The
        // replacements form a forest over the pieces, so every one is
        // joined: one label per final tour is the pieces less the joins.
        let replacements = self.find_replacements(&split, ctx);
        let joined = self.etf.batch_join(&replacements, ctx)?;
        charge_forest(&joined, loads, ctx, |m, w| m + w);
        for p in &split.pieces {
            let t = self.etf.tour_of(p.first);
            let new_c = self.etf.tour_label(t);
            if !p.largest {
                for &v in &p.members {
                    self.comp[v as usize] = new_c;
                }
            } else if new_c != p.origin {
                // The origin's minimum vertex was cut away from its
                // largest piece: the one case that piece's members
                // are visited, through the final tour that holds them.
                self.etf.label_tours([t], &mut self.comp);
            }
        }
        ctx.sort(2 * (split.pieces.len() - joined.len()) as u64);
        ctx.broadcast(2);
        Ok(())
    }

    /// Describes the tours `batch_split` returned. Must run before any
    /// label is rewritten: a piece's origin is read off `comp`, which
    /// still holds the pre-split labels.
    fn capture_pieces(&self, tours: &[TourId]) -> SplitPieces {
        let mut pieces: Vec<Piece> = Vec::with_capacity(tours.len());
        let mut origins: Vec<(VertexId, u32)> = Vec::with_capacity(tours.len());
        for (i, &tour) in tours.iter().enumerate() {
            let members = self.etf.tour_members(tour);
            let first = members[0];
            let origin = self.comp[first as usize];
            origins.push((origin, i as u32));
            pieces.push(Piece {
                tour,
                first,
                origin,
                size: members.len(),
                largest: false,
                members: Vec::new(),
            });
        }
        origins.sort_unstable();
        for siblings in origins.chunk_by(|a, b| a.0 == b.0) {
            let mut largest = siblings[0].1 as usize;
            for &(_, i) in &siblings[1..] {
                if pieces[i as usize].size > pieces[largest].size {
                    largest = i as usize;
                }
            }
            pieces[largest].largest = true;
        }
        for p in pieces.iter_mut().filter(|p| !p.largest) {
            p.members = self.etf.tour_members(p.tour).to_vec();
        }
        SplitPieces { pieces, origins }
    }

    /// Borůvka over the split pieces using one fresh sketch copy per
    /// level (Section 6.3, "Constructing F_H"): the
    /// [`mpc_sketch::cascade`] driver over piece indices, with this
    /// function supplying each supernode's merge.
    ///
    /// **Zero-sum shortcut.** Every tour `batch_split` cut was, by the
    /// spanning-forest invariant, a whole connected component, so the
    /// sketch columns of its vertices sum to exactly zero in every
    /// copy and level: each live edge has both endpoints inside and
    /// its two signed contributions cancel (wrapping and
    /// `GF(2^61 − 1)` adds are exact). A supernode that holds its
    /// origin's largest piece therefore gets its accumulator as
    /// `−Σ columns of the origin's pieces outside it`, and that
    /// piece's columns are never read — a deletion from a giant
    /// component costs what it cuts off, not the component's size.
    /// The precondition is the dynamic-graph contract sampler
    /// correctness already rests on: no deletion of an absent edge
    /// (it would leave a phantom coordinate in two components' cuts).
    /// This is a host shortcut only: the machines of the model still
    /// converge-cast every member's sketch, and the charge below
    /// counts every member.
    fn find_replacements(&mut self, split: &SplitPieces, ctx: &mut MpcContext) -> Vec<Edge> {
        let pieces = &split.pieces;
        // Tour → piece index, sorted by tour (`batch_split` returns
        // each tour once).
        let mut piece_index: Vec<(TourId, u32)> =
            pieces.iter().zip(0..).map(|(p, i)| (p.tour, i)).collect();
        piece_index.sort_unstable();
        let piece_of = |t: TourId| {
            piece_index
                .binary_search_by_key(&t, |&(tour, _)| tour)
                .ok()
                .map(|at| piece_index[at].1)
        };
        let member_total: u64 = pieces.iter().map(|p| p.size as u64).sum();
        let sketch_words = self.bank.words_per_copy();
        // One converge-cast merges every piece's sketches (all `t`
        // copies) in parallel, and the merged sketches — `O(k·log³n)`
        // words — are collected at the coordinator, which then runs
        // the whole Borůvka cascade *locally* (paper Lemma 6.5: at
        // the paper's parameterization, `k ≤ n^φ/log³n`, everything
        // fits in one machine, so the cascade costs no extra rounds).
        // The t copies merge along parallel aggregation trees (the
        // paper's regime has s >> log^3 n, so one machine holds many
        // sketches; the depth is governed by a single copy's size).
        ctx.converge_cast(member_total.max(1), sketch_words);
        ctx.exchange(pieces.len() as u64 * sketch_words * self.bank.copies() as u64);
        let (bank, etf) = (&self.bank, &self.etf);
        #[cfg(debug_assertions)]
        let mut reference = bank.new_scratch();
        let mut replacements: Vec<Edge> = Vec::new();
        // Replacement edges never leave an origin, so a supernode's
        // pieces share one.
        let merge = |group: &[u32], roots: &[u32], scratch: &mut MergeScratch| {
            if !group.iter().any(|&pi| pieces[pi as usize].largest) {
                for &pi in group {
                    bank.merge_copy_into(&pieces[pi as usize].members, scratch);
                }
                return;
            }
            // Holds the origin's largest piece: minus the sum of the
            // sibling pieces outside this supernode.
            let root = roots[group[0] as usize];
            for pj in split.siblings(pieces[group[0] as usize].origin) {
                if roots[pj as usize] != root {
                    bank.subtract_copy_from(&pieces[pj as usize].members, scratch);
                }
            }
            // The all-members merge this replaces, kept as the
            // reference it must equal cell for cell (the tours still
            // carry their post-split ids here).
            #[expect(
                clippy::disallowed_macros,
                reason = "a debug_assert!, which clippy reads as the assert! it expands to"
            )]
            #[cfg(debug_assertions)]
            {
                reference.reset(scratch.copy());
                for &pi in group {
                    bank.merge_copy_into(
                        etf.tour_members(pieces[pi as usize].tour),
                        &mut reference,
                    );
                }
                debug_assert!(
                    (0..scratch.levels()).all(|l| scratch.cell(l) == reference.cell(l)),
                    "derived accumulator of supernode {root} differs from its members' merge at \
                     copy {}: an origin tour's columns do not sum to zero",
                    scratch.copy()
                );
            }
        };
        #[expect(
            clippy::disallowed_macros,
            reason = "a debug_assert!, which clippy reads as the assert! it expands to"
        )]
        let nodes_of = |e: Edge| {
            let ends = piece_of(etf.tour_of(e.u())).zip(piece_of(etf.tour_of(e.v())));
            debug_assert!(
                ends.is_some(),
                "sampled edge {e} leaves the affected component"
            );
            ends
        };
        self.sampler_failures += cascade::run(
            bank,
            &mut UnionFind::new(pieces.len()),
            Untouched::Empty,
            merge,
            nodes_of,
            |_, accepted| replacements.extend_from_slice(accepted),
        );
        // Distribute the replacement set once (the subsequent
        // batch_join charges its own splice rounds).
        ctx.sort(2 * replacements.len() as u64 + 1);
        ctx.broadcast(2);
        replacements
    }
}

/// Words a forest edge holds on its smaller endpoint's shard.
const FOREST_EDGE_WORDS: u64 = 6;

/// Reports `loads` machine by machine, in ascending order.
fn set_loads(loads: &[u64], ctx: &mut MpcContext) -> Result<(), MpcError> {
    for (m, &w) in loads.iter().enumerate() {
        ctx.set_load(m, w)?;
    }
    Ok(())
}

/// Moves the shard load of each forest edge in `edges` by
/// [`FOREST_EDGE_WORDS`] with `op` (add for a joined edge, subtract
/// for a cut one).
fn charge_forest(edges: &[Edge], loads: &mut [u64], ctx: &MpcContext, op: fn(u64, u64) -> u64) {
    for e in edges {
        let m = ctx.config().machine_of_vertex(e.u());
        loads[m] = op(loads[m], FOREST_EDGE_WORDS);
    }
}

/// One tour left behind by `batch_split`, as the replacement search
/// and the relabel see it once joins have renamed the tour.
struct Piece {
    /// Its tour id between the split and the replacement join.
    tour: TourId,
    /// Smallest member (tour member lists are sorted): stands in for
    /// the piece in `tour_of` lookups.
    first: VertexId,
    /// Label of the tour it was cut from (the pre-split `comp` of any
    /// member) — pieces with equal origins partition that tour.
    origin: VertexId,
    /// Member count; the converge-cast charge counts every member.
    size: usize,
    /// Whether this is the largest piece of its origin (first of the
    /// largest on ties): the one whose columns are derived, not read.
    largest: bool,
    /// The captured member list — left empty for the largest piece,
    /// whose columns and labels are never walked.
    members: Vec<VertexId>,
}

/// The pieces of one `batch_split`, with their grouping by origin.
struct SplitPieces {
    /// In the order `batch_split` returned the tours.
    pieces: Vec<Piece>,
    /// `(origin label, piece index)` for every piece, sorted: the
    /// pieces cut from one origin form a run, in ascending index.
    origins: Vec<(VertexId, u32)>,
}

impl SplitPieces {
    /// Indices of the pieces cut from `origin`, ascending.
    fn siblings(&self, origin: VertexId) -> impl Iterator<Item = u32> + '_ {
        let from = self.origins.partition_point(|&(o, _)| o < origin);
        self.origins[from..]
            .iter()
            .take_while(move |&&(o, _)| o == origin)
            .map(|&(_, i)| i)
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(Connectivity {
    n,
    comp,
    etf,
    bank,
    live_edges,
    sampler_failures,
    loads,
} check |c| {
    if c.comp.len() != c.n {
        return Err(format!(
            "connectivity label table covers {} of {} vertices",
            c.comp.len(),
            c.n
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Maintain, QueryRequest, QueryResponse};
    use mpc_etf::tour::validate;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;
    use std::collections::BTreeSet;

    fn ctx_for(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
    }

    fn check_against_oracle(conn: &Connectivity, live: &[Edge], n: usize) {
        let labels = oracle::components(n, live.iter().copied());
        assert_eq!(
            conn.component_labels(),
            &labels[..],
            "component labels must match union-find oracle"
        );
        // Spanning forest sanity: forest over live edges, spans.
        let forest = conn.spanning_forest();
        let mut uf = UnionFind::new(n);
        for e in &forest {
            assert!(live.contains(e), "forest edge {e} not live");
            assert!(uf.union(e.u(), e.v()), "forest has a cycle at {e}");
        }
        assert_eq!(
            uf.component_count(),
            oracle::component_count(n, live.iter().copied()),
            "forest spans all components"
        );
        validate(conn.etf()).expect("tours valid");
        // Every label is its tour's smallest member.
        let etf = conn.etf();
        for v in 0..n as u32 {
            assert_eq!(
                conn.component_labels()[v as usize],
                etf.tour_members(etf.tour_of(v))[0],
                "label of {v}"
            );
        }
    }

    #[test]
    fn single_insertions_connect() {
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
        let mut live = Vec::new();
        for i in 0..n as u32 - 1 {
            let e = Edge::new(i, i + 1);
            conn.apply_update(Update::Insert(e), &mut ctx).unwrap();
            live.push(e);
            check_against_oracle(&conn, &live, n);
        }
        assert_eq!(conn.component_count(), 1);
    }

    #[test]
    fn batch_insertions_random() {
        let n = 64;
        let stream = gen::random_insert_stream(n, 6, 12, 7);
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 2);
        let snaps = stream.replay();
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            conn.apply_batch(batch, &mut ctx).unwrap();
            let live: Vec<Edge> = snap.edges().collect();
            check_against_oracle(&conn, &live, n);
        }
    }

    #[test]
    fn nontree_deletion_is_trivial() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 3);
        // Triangle: one edge is non-tree.
        let tri = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        conn.apply_batch(&Batch::inserting(tri), &mut ctx).unwrap();
        let forest = conn.spanning_forest();
        let nontree = tri
            .iter()
            .copied()
            .find(|e| !forest.contains(e))
            .expect("triangle has a non-tree edge");
        conn.apply_update(Update::Delete(nontree), &mut ctx)
            .unwrap();
        assert!(conn.connected(0, 2));
        assert_eq!(conn.component_count(), n - 2);
    }

    #[test]
    fn tree_deletion_with_replacement() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 4);
        let tri = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        conn.apply_batch(&Batch::inserting(tri), &mut ctx).unwrap();
        let forest = conn.spanning_forest();
        let tree_edge = forest[0];
        conn.apply_update(Update::Delete(tree_edge), &mut ctx)
            .unwrap();
        // Still connected via the replacement.
        assert!(conn.connected(0, 1));
        assert!(conn.connected(1, 2));
        let live: Vec<Edge> = tri.iter().copied().filter(|&e| e != tree_edge).collect();
        check_against_oracle(&conn, &live, n);
    }

    #[test]
    fn tree_deletion_without_replacement_splits() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 5);
        let path = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        conn.apply_batch(&Batch::inserting(path), &mut ctx).unwrap();
        conn.apply_update(Update::Delete(Edge::new(1, 2)), &mut ctx)
            .unwrap();
        assert!(conn.connected(0, 1));
        assert!(conn.connected(2, 3));
        assert!(!conn.connected(1, 2));
        assert_eq!(conn.component_of(2), 2);
        let live = [Edge::new(0, 1), Edge::new(2, 3)];
        check_against_oracle(&conn, &live, n);
    }

    #[test]
    fn mixed_random_stream_matches_oracle() {
        let n = 48;
        let stream = gen::random_mixed_stream(n, 10, 8, 0.65, 99);
        let snaps = stream.replay();
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 6);
        for (bi, (batch, snap)) in stream.batches.iter().zip(&snaps).enumerate() {
            conn.apply_batch(batch, &mut ctx)
                .unwrap_or_else(|e| panic!("batch {bi}: {e}"));
            let live: Vec<Edge> = snap.edges().collect();
            check_against_oracle(&conn, &live, n);
        }
    }

    #[test]
    fn merge_split_churn_matches_oracle() {
        let stream = gen::merge_split_stream(4, 4, 3, 24, 11);
        let n = stream.n;
        let snaps = stream.replay();
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 7);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            conn.apply_batch(batch, &mut ctx).unwrap();
            let live: Vec<Edge> = snap.edges().collect();
            check_against_oracle(&conn, &live, n);
        }
    }

    #[test]
    fn cancelling_updates_are_noop() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 8);
        let e = Edge::new(0, 1);
        conn.apply_batch(
            &Batch::from_updates(vec![Update::Insert(e), Update::Delete(e)]),
            &mut ctx,
        )
        .unwrap();
        assert!(!conn.connected(0, 1));
        assert_eq!(conn.live_edge_count(), 0);
        // Delete-then-reinsert inside one batch is also a net no-op.
        conn.apply_update(Update::Insert(e), &mut ctx).unwrap();
        conn.apply_batch(
            &Batch::from_updates(vec![Update::Delete(e), Update::Insert(e)]),
            &mut ctx,
        )
        .unwrap();
        assert!(conn.connected(0, 1));
        assert_eq!(conn.live_edge_count(), 1);
    }

    #[test]
    fn rounds_per_batch_are_bounded() {
        let n = 256;
        let stream = gen::random_mixed_stream(n, 8, 16, 0.6, 5);
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 9);
        let budget = (conn.bank.copies() as u64 + 8) * ctx.config().round_budget_per_primitive();
        for (bi, batch) in stream.batches.iter().enumerate() {
            ctx.begin_phase("batch");
            conn.apply_batch(batch, &mut ctx).unwrap();
            let r = ctx.end_phase();
            assert!(
                r.rounds <= budget,
                "batch {bi} used {} rounds > {budget}",
                r.rounds
            );
        }
    }

    #[test]
    fn memory_is_tracked() {
        let n = 64;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 10);
        conn.apply_batch(
            &Batch::inserting((0..10u32).map(|i| Edge::new(i, i + 1))),
            &mut ctx,
        )
        .unwrap();
        assert!(ctx.stats().peak_total_words > 0);
        assert!(conn.words() > 0);
    }

    #[test]
    fn invalid_vertex_rejected() {
        let n = 4;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 11);
        let err = conn
            .apply_update(Update::Insert(Edge::new(0, 7)), &mut ctx)
            .unwrap_err();
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    }

    #[test]
    fn adversarial_delete_reinsert_cycles_on_tree_edges() {
        // Repeatedly delete exactly the current spanning forest's
        // edges and re-insert them next batch — the worst case for
        // sketch freshness (every batch exercises the replacement
        // search and the tours churn completely).
        let n = 24;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 13);
        // Ladder: replacements always exist.
        let half = n as u32 / 2;
        let mut edges: Vec<Edge> = Vec::new();
        for i in 0..half - 1 {
            edges.push(Edge::new(i, i + 1));
            edges.push(Edge::new(half + i, half + i + 1));
        }
        for i in 0..half {
            edges.push(Edge::new(i, half + i));
        }
        conn.apply_batch(&Batch::inserting(edges.clone()), &mut ctx)
            .unwrap();
        let mut live: BTreeSet<Edge> = edges.iter().copied().collect();
        for round in 0..6 {
            let forest = conn.spanning_forest();
            let victims: Vec<Edge> = forest.into_iter().take(8).collect();
            conn.apply_batch(&Batch::deleting(victims.iter().copied()), &mut ctx)
                .unwrap();
            for e in &victims {
                live.remove(e);
            }
            let snapshot: Vec<Edge> = live.iter().copied().collect();
            check_against_oracle(&conn, &snapshot, n);
            conn.apply_batch(&Batch::inserting(victims.iter().copied()), &mut ctx)
                .unwrap();
            live.extend(victims);
            let snapshot: Vec<Edge> = live.iter().copied().collect();
            check_against_oracle(&conn, &snapshot, n);
            let _ = round;
        }
    }

    #[test]
    fn charged_component_count_matches_free_one() {
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 14);
        conn.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(3, 4)]),
            &mut ctx,
        )
        .unwrap();
        ctx.begin_phase("count");
        let count = Maintain::answer(&mut conn, &QueryRequest::ComponentCount, &mut ctx);
        let r = ctx.end_phase();
        assert_eq!(
            count,
            Some(Ok(QueryResponse::Count(conn.component_count() as u64)))
        );
        assert!(r.rounds >= 1);
    }

    #[test]
    fn from_graph_bootstrap_matches_oracle() {
        let n = 64;
        let stream = gen::random_insert_stream(n, 1, 120, 21);
        let snap = stream.replay().pop().expect("nonempty");
        let edges: Vec<Edge> = snap.edges().collect();
        let mut ctx = ctx_for(n);
        ctx.begin_phase("bootstrap");
        let mut conn = Connectivity::from_graph(
            n,
            ConnectivityConfig::default(),
            31,
            edges.iter().copied(),
            &mut ctx,
        )
        .expect("bootstrap");
        let boot = ctx.end_phase();
        assert!(boot.rounds >= 1, "bootstrap costs rounds");
        check_against_oracle(&conn, &edges, n);
        assert_eq!(conn.live_edge_count(), edges.len());
        // The structure is fully dynamic afterwards.
        let forest = conn.spanning_forest();
        conn.apply_update(Update::Delete(forest[0]), &mut ctx)
            .expect("dynamic after bootstrap");
        let live: Vec<Edge> = edges.into_iter().filter(|&e| e != forest[0]).collect();
        check_against_oracle(&conn, &live, n);
    }

    /// Two `K8`s joined by 8 bridges: at seed 23 a level accepts no
    /// edge only because a supernode's sampler failed, and the
    /// cascade must go on to the next copy instead of reporting two
    /// components.
    #[test]
    fn from_graph_continues_past_a_level_whose_samplers_failed() {
        let n = 16;
        let clique = |base: u32| {
            (0..8u32).flat_map(move |a| (a + 1..8).map(move |b| Edge::new(base + a, base + b)))
        };
        let edges: Vec<Edge> = clique(0)
            .chain(clique(8))
            .chain((0..8u32).map(|i| Edge::new(i, i + 8)))
            .collect();
        let mut ctx = ctx_for(n);
        let conn = Connectivity::from_graph(
            n,
            ConnectivityConfig::default(),
            23,
            edges.iter().copied(),
            &mut ctx,
        )
        .expect("bootstrap");
        check_against_oracle(&conn, &edges, n);
    }

    /// Two `K4`s joined by `(0, 4)`, listed twice. Loaded twice, the
    /// bridge's cut coordinate carries `±2`, every copy samples `Fail`,
    /// and every seed reported two components; the bootstrap now
    /// rejects the repeat, as `apply_batch` does.
    #[test]
    fn from_graph_rejects_a_repeated_edge() {
        let k4 =
            |b: u32| (0..4u32).flat_map(move |a| (a + 1..4).map(move |c| Edge::new(b + a, b + c)));
        let bridge = Edge::new(0, 4);
        let edges: Vec<Edge> = k4(0).chain(k4(4)).chain([bridge, bridge]).collect();
        for seed in 0..8 {
            let mut ctx = ctx_for(8);
            let err = Connectivity::from_graph(
                8,
                ConnectivityConfig::default(),
                seed,
                edges.iter().copied(),
                &mut ctx,
            )
            .map(|c| c.component_count())
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                invalid_update(bridge).to_string(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn query_output_placement_charges_a_sort() {
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 2);
        conn.apply_batch(
            &Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 1))),
            &mut ctx,
        )
        .unwrap();
        ctx.begin_phase("query");
        let forest = Maintain::answer(&mut conn, &QueryRequest::SpanningForest, &mut ctx);
        let r = ctx.end_phase();
        assert_eq!(
            forest,
            Some(Ok(QueryResponse::Edges(conn.spanning_forest())))
        );
        assert_eq!(conn.spanning_forest().len(), 8);
        assert!(r.rounds >= 1 && r.rounds <= ctx.config().round_budget_per_primitive() + 3);
    }

    /// The structure's full persisted state, as snapshot bytes.
    fn save_bytes(conn: &Connectivity) -> Vec<u8> {
        use mpc_snapshot::Persist;
        let mut w = mpc_snapshot::SnapshotWriter::new(0);
        w.begin_section("connectivity");
        conn.save(&mut w);
        w.end_section();
        w.finish()
    }

    /// Path `lo – lo+1 – … – hi`.
    fn path(lo: u32, hi: u32) -> impl Iterator<Item = Edge> {
        (lo..hi).map(|i| Edge::new(i, i + 1))
    }

    #[test]
    fn rejected_batches_leave_the_persisted_state_unchanged() {
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 15);
        conn.apply_batch(&Batch::inserting(path(0, 4)), &mut ctx)
            .unwrap();
        let before = save_bytes(&conn);
        // A duplicate tree edge behind a valid insertion.
        let dup = Batch::inserting([Edge::new(8, 9), Edge::new(1, 2)]);
        // More deletions than live edges, alone and behind a valid
        // insertion that the check must count but not apply.
        let absent = (5..10u32).map(|i| Update::Delete(Edge::new(i, i + 1)));
        let underflow = Batch::from_updates(absent.clone().collect());
        let mixed = Batch::from_updates(
            [Update::Insert(Edge::new(8, 9))]
                .into_iter()
                .chain(absent)
                .chain([Update::Delete(Edge::new(12, 13))])
                .collect(),
        );
        for (batch, what) in [(dup, "dup"), (underflow, "underflow"), (mixed, "mixed")] {
            let err = conn.apply_batch(&batch, &mut ctx).unwrap_err();
            assert!(matches!(err, MpcStreamError::InvalidBatch(_)), "{what}");
            assert_eq!(save_bytes(&conn), before, "{what}: state moved on Err");
        }
        // Still usable afterwards.
        conn.apply_update(Update::Delete(Edge::new(1, 2)), &mut ctx)
            .unwrap();
        check_against_oracle(
            &conn,
            &[Edge::new(0, 1), Edge::new(2, 3), Edge::new(3, 4)],
            n,
        );
    }

    #[test]
    fn one_batch_cuts_tree_edges_of_two_components() {
        // Two origins in one split: a chorded path (replacement
        // exists) and a bare path (none does).
        let n = 24;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 16);
        let mut live: Vec<Edge> = path(0, 9).chain(path(12, 21)).collect();
        live.push(Edge::new(2, 7));
        conn.apply_batch(&Batch::inserting(live.clone()), &mut ctx)
            .unwrap();
        let forest = conn.spanning_forest();
        let cut_a = *forest
            .iter()
            .find(|e| e.u() >= 2 && e.v() <= 7)
            .expect("a tree edge on the chorded cycle");
        let cuts = [cut_a, Edge::new(15, 16), Edge::new(18, 19)];
        conn.apply_batch(&Batch::deleting(cuts), &mut ctx).unwrap();
        live.retain(|e| !cuts.contains(e));
        check_against_oracle(&conn, &live, n);
        assert!(conn.connected(0, 9), "the chord replaces the cut");
        assert_eq!(conn.component_of(17), 16);
        assert_eq!(conn.component_of(21), 19);
    }

    #[test]
    fn minimum_vertex_leaving_the_largest_piece_relabels_it() {
        // The largest piece keeps its old label unless the origin's
        // minimum vertex is cut away from it — then its members must
        // be walked, with and without a replacement joining it first.
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 17);
        let mut live: Vec<Edge> = path(0, 10).collect();
        live.push(Edge::new(3, 8));
        conn.apply_batch(&Batch::inserting(live.clone()), &mut ctx)
            .unwrap();
        let forest = conn.spanning_forest();
        let on_cycle = *forest
            .iter()
            .find(|e| e.u() >= 3 && e.v() <= 8)
            .expect("a tree edge on the chorded cycle");
        let cuts = [Edge::new(0, 1), on_cycle];
        conn.apply_batch(&Batch::deleting(cuts), &mut ctx).unwrap();
        live.retain(|e| !cuts.contains(e));
        check_against_oracle(&conn, &live, n);
        assert_eq!(conn.component_of(0), 0);
        assert_eq!(conn.component_of(10), 1);
        // No replacement: {1} leaves {2..=10}, which takes label 2.
        conn.apply_update(Update::Delete(Edge::new(1, 2)), &mut ctx)
            .unwrap();
        live.retain(|&e| e != Edge::new(1, 2));
        check_against_oracle(&conn, &live, n);
        assert_eq!(conn.component_of(10), 2);
    }

    #[test]
    fn star_centre_losing_every_edge_leaves_singletons() {
        // Every piece is a singleton; the first of them stands in as
        // "largest" and its accumulator is minus the sum of all the
        // others — zero, like every direct one.
        let n = 12;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 18);
        let spokes: Vec<Edge> = (0..n as u32)
            .filter(|&v| v != 5)
            .map(|v| Edge::new(5, v))
            .collect();
        conn.apply_batch(&Batch::inserting(spokes.clone()), &mut ctx)
            .unwrap();
        assert_eq!(conn.component_count(), 1);
        conn.apply_batch(&Batch::deleting(spokes), &mut ctx)
            .unwrap();
        check_against_oracle(&conn, &[], n);
        assert_eq!(conn.component_count(), n);
        assert_eq!(conn.sampler_failure_count(), 0);
    }

    #[test]
    fn unreplaced_deletion_then_reinsertion_restores_the_labels() {
        let n = 16;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 19);
        let live: Vec<Edge> = path(0, 12).collect();
        conn.apply_batch(&Batch::inserting(live.clone()), &mut ctx)
            .unwrap();
        let labels = conn.component_labels().to_vec();
        for cut in [Edge::new(2, 3), Edge::new(9, 10)] {
            conn.apply_update(Update::Delete(cut), &mut ctx).unwrap();
            let rest: Vec<Edge> = live.iter().copied().filter(|&e| e != cut).collect();
            check_against_oracle(&conn, &rest, n);
            conn.apply_update(Update::Insert(cut), &mut ctx).unwrap();
            check_against_oracle(&conn, &live, n);
            assert_eq!(conn.component_labels(), &labels[..]);
        }
    }

    /// The two `BTreeMap`s (last update, count) that
    /// `Connectivity::normalize` replaced, kept as its reference.
    fn normalize_reference(
        n: usize,
        batch: &Batch,
    ) -> Result<(Vec<Edge>, Vec<Edge>), MpcStreamError> {
        use std::collections::BTreeMap;
        let mut last: BTreeMap<Edge, (Update, usize)> = BTreeMap::new();
        let mut count: BTreeMap<Edge, usize> = BTreeMap::new();
        for (i, u) in batch.iter().enumerate() {
            let e = u.edge();
            if (e.v() as usize) >= n {
                return Err(invalid_update(e));
            }
            last.insert(e, (u, i));
            *count.entry(e).or_insert(0) += 1;
        }
        let mut ins = Vec::new();
        let mut del = Vec::new();
        let mut ordered: Vec<(Edge, (Update, usize))> = last.into_iter().collect();
        ordered.sort_by_key(|(_, (_, i))| *i);
        for (e, (u, _)) in ordered {
            if count[&e].is_multiple_of(2) {
                continue;
            }
            match u {
                Update::Insert(_) => ins.push(e),
                Update::Delete(_) => del.push(e),
            }
        }
        Ok((ins, del))
    }

    /// Random batches over few edges — odd and even toggle runs,
    /// repeated same-direction updates, the occasional endpoint
    /// outside `[0, n)` — normalize to the reference's survivors in
    /// the reference's order, or to its error.
    #[test]
    fn normalization_matches_the_btree_reference() {
        use mpc_hashing::rng::StdRng;
        let n = 8;
        let conn = Connectivity::new(n, ConnectivityConfig::default(), 20);
        let mut rng = StdRng::seed_from_u64(0xB0D5);
        for round in 0..400 {
            let len = rng.gen_range(0..40usize);
            let updates: Vec<Update> = (0..len)
                .map(|_| {
                    let a = rng.gen_range(0..5u32);
                    let b = if rng.gen_bool(0.01) { 9 } else { a + 1 };
                    let e = Edge::new(a, b);
                    if rng.gen_bool(0.5) {
                        Update::Insert(e)
                    } else {
                        Update::Delete(e)
                    }
                })
                .collect();
            let batch = Batch::from_updates(updates);
            let got = conn.normalize(&batch).map_err(|e| e.to_string());
            let want = normalize_reference(n, &batch).map_err(|e| e.to_string());
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn duplicate_tree_insert_rejected() {
        let n = 4;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 12);
        let e = Edge::new(0, 1);
        conn.apply_update(Update::Insert(e), &mut ctx).unwrap();
        let err = conn.apply_update(Update::Insert(e), &mut ctx).unwrap_err();
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    }
}
