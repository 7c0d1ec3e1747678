//! Arena merge equivalence and content pins: the empty / full /
//! cancelled live-mask extremes must sample and merge correctly, an
//! arena snapshot must round-trip byte-stably, and the cells and the
//! snapshot bytes of one seeded stream are pinned against recorded
//! constants. Also here: the zero-sum property behind
//! `subtract_from` — a part's accumulator derived from its
//! complement equals its direct merge. And the batched write path: a
//! bank fed whole batches through `update_edges` equals one fed the
//! same updates one at a time, cell for cell and byte for byte.

use mpc_hashing::rng::StdRng;
use mpc_sketch::l0::SampleOutcome;
use mpc_sketch::{MergeScratch, SketchArena};
use mpc_snapshot::{Persist, SnapshotWriter};

/// Serializes an arena to snapshot bytes.
fn snapshot_bytes(arena: &SketchArena) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("arena");
    arena.save(&mut w);
    w.end_section();
    w.finish()
}

/// Builds an arena and drives it through a seeded update stream.
fn build_arena(
    n: usize,
    copies: usize,
    max_index: u64,
    seed: u64,
    drive: impl Fn(&mut SketchArena, &mut StdRng),
) -> SketchArena {
    let mut arena = SketchArena::new(n, copies, max_index, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    drive(&mut arena, &mut rng);
    arena
}

/// Random adversarial stream: single updates, pair updates, and
/// exact cancellations (re-applying an earlier update negated), so
/// live-mask bits both set and clear.
fn random_stream(
    arena: &mut SketchArena,
    rng: &mut StdRng,
    n: u32,
    max_index: u64,
    updates: usize,
) {
    let mut history: Vec<(u32, u64, i64)> = Vec::new();
    for _ in 0..updates {
        match rng.gen_range(0..4) {
            // Cancel an earlier single update exactly.
            0 if !history.is_empty() => {
                let (v, index, delta) = history.swap_remove(rng.gen_range(0..history.len()));
                arena.update(v, index, -delta);
            }
            // Pair update (the edge path).
            1 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                let index = rng.gen_range(0..max_index);
                arena.materialize(a);
                arena.materialize(b);
                arena.update_pair(a, b, index, 1, -1);
            }
            // Single update with a small weight.
            _ => {
                let v = rng.gen_range(0..n);
                let index = rng.gen_range(0..max_index);
                let delta = [1, -1, 2, -3][rng.gen_range(0..4usize)];
                arena.materialize(v);
                arena.update(v, index, delta);
                history.push((v, index, delta));
            }
        }
    }
}

#[test]
fn empty_full_and_cancelled_mask_extremes() {
    let max_index = 1u64 << 6; // 9 levels: every level reachable.
    let arena = build_arena(16, 2, max_index, 0xF00D, |arena, _| {
        // Vertex 0: untouched (no block). Vertex 1: materialized but
        // empty (all-zero mask). Vertex 2: every index once — every
        // level of every copy live (full mask). Vertex 3: filled then
        // exactly cancelled (mask set, then cleared back to empty).
        arena.materialize(1);
        for index in 0..max_index {
            arena.materialize(2);
            arena.update(2, index, 1);
            arena.materialize(3);
            arena.update(3, index, 1);
        }
        for index in 0..max_index {
            arena.update(3, index, -1);
        }
    });
    for copy in 0..arena.copies() {
        assert_eq!(arena.sample_column(0, copy), SampleOutcome::Zero);
        assert_eq!(arena.sample_column(1, copy), SampleOutcome::Zero);
        assert_eq!(arena.sample_column(3, copy), SampleOutcome::Zero);
        assert!(
            !matches!(arena.sample_column(2, copy), SampleOutcome::Zero),
            "full column must not sample Zero"
        );
    }
    // The cancelled-and-empty member set must still sample Zero
    // through the union-mask path.
    let mut scratch = arena.new_scratch();
    scratch.reset(0);
    arena.merge_into(&[0, 1, 3], &mut scratch);
    assert_eq!(
        arena.sample_scratch(&scratch),
        SampleOutcome::Zero,
        "cancelled members must merge to the zero sketch"
    );
}

/// The zero-sum property the deletion cascade rests on, over random
/// graphs and random partitions: the columns of an edge-closed vertex
/// set sum to the zero column in every copy, so any part's
/// accumulator can be had as minus the sum of the other parts' —
/// cell for cell, with the same sample — without reading the part.
/// The graphs carry delete-to-zero cancellations (cleared live-mask
/// bits), never-touched vertices, and a second edge-closed block whose
/// columns must stay out of the sums.
#[test]
fn complement_derived_accumulators_equal_direct_merges() {
    use mpc_graph::ids::Edge;
    use mpc_sketch::SketchBank;
    const HALF: u32 = 24;
    let random_edge = |rng: &mut StdRng, lo: u32| {
        let a = lo + rng.gen_range(0..HALF - 2);
        let b = lo + (a - lo + 1 + rng.gen_range(0..HALF - 3)) % (HALF - 2);
        Edge::new(a, b)
    };
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed);
        let mut bank = SketchBank::new(2 * HALF as usize, 3, seed);
        // Two blocks with no edge between them; the last two vertices
        // of each stay untouched (no cell block at all).
        let mut live: Vec<Edge> = Vec::new();
        for _ in 0..rng.gen_range(20..120) {
            let lo = if rng.gen_bool(0.5) { 0 } else { HALF };
            let e = random_edge(&mut rng, lo);
            match live.iter().position(|&x| x == e) {
                Some(i) => {
                    bank.delete_edge(live.swap_remove(i));
                }
                None => {
                    bank.insert_edge(e);
                    live.push(e);
                }
            }
        }
        // Cancel a few vertices' columns back to all-zero by deleting
        // everything incident to them.
        for _ in 0..3 {
            let v = rng.gen_range(0..HALF - 2);
            live.retain(|&e| {
                let incident = e.u() == v || e.v() == v;
                if incident {
                    bank.delete_edge(e);
                }
                !incident
            });
        }
        // A random partition of the first block, empty parts allowed.
        let parts_n = rng.gen_range(1..7usize);
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); parts_n];
        for v in 0..HALF {
            parts[rng.gen_range(0..parts_n)].push(v);
        }
        let cells = |s: &MergeScratch| -> Vec<_> { (0..s.levels()).map(|l| s.cell(l)).collect() };
        let mut direct = bank.new_scratch();
        let mut derived = bank.new_scratch();
        for copy in 0..bank.copies() {
            direct.reset(copy);
            for part in &parts {
                bank.merge_copy_into(part, &mut direct);
            }
            assert!(
                cells(&direct)
                    .iter()
                    .all(|&(v, i, f)| v == 0 && i == 0 && f.is_zero()),
                "seed {seed} copy {copy}: an edge-closed set must sum to zero"
            );
            for (a, part) in parts.iter().enumerate() {
                direct.reset(copy);
                bank.merge_copy_into(part, &mut direct);
                derived.reset(copy);
                for (b, other) in parts.iter().enumerate() {
                    if b != a {
                        bank.subtract_copy_from(other, &mut derived);
                    }
                }
                assert_eq!(
                    cells(&derived),
                    cells(&direct),
                    "seed {seed} copy {copy} part {a}: cells"
                );
                assert_eq!(
                    bank.sample_merged(&derived),
                    bank.sample_merged(&direct),
                    "seed {seed} copy {copy} part {a}: sample"
                );
            }
        }
    }
}

const GOLDEN_N: u32 = 40;

/// The seeded arena the round-trip and golden tests share: 40
/// vertices, 2 copies, 400 ops of [`random_stream`].
fn golden_arena() -> SketchArena {
    let max_index = 1u64 << 8;
    build_arena(GOLDEN_N as usize, 2, max_index, 0x5EED, |arena, rng| {
        random_stream(arena, rng, GOLDEN_N, max_index, 400);
    })
}

/// Format-independent content digest: FNV-1a over `is_materialized(v)`
/// (one byte) and every `(value_sum, index_sum, fp)` cell triple of
/// every vertex, copy and level in that order, little-endian. It reads
/// the arena through its accessors only, so it moves when a cell or a
/// block assignment moves and never when the snapshot encoding does.
fn content_digest(arena: &SketchArena) -> u64 {
    let mut bytes = Vec::new();
    for v in 0..GOLDEN_N {
        bytes.push(u8::from(arena.is_materialized(v)));
        for copy in 0..arena.copies() {
            for level in 0..arena.levels() {
                let (value_sum, index_sum, fp) = arena.cell(v, copy, level);
                bytes.extend_from_slice(&value_sum.to_le_bytes());
                bytes.extend_from_slice(&index_sum.to_le_bytes());
                bytes.extend_from_slice(&fp.value().to_le_bytes());
            }
        }
    }
    mpc_snapshot::fnv1a(&bytes)
}

#[test]
fn snapshot_roundtrip_preserves_cells() {
    let arena = golden_arena();
    let bytes = snapshot_bytes(&arena);
    let snap = mpc_snapshot::Snapshot::from_bytes(&bytes).expect("readable");
    let mut r = snap.section("arena").expect("arena section");
    let restored = SketchArena::load(&mut r).expect("loadable");
    assert_eq!(content_digest(&restored), content_digest(&arena));
    assert_eq!(restored.live_cells(), arena.live_cells());
    assert_eq!(
        bytes,
        snapshot_bytes(&restored),
        "restore must be byte-stable"
    );
}

/// Golden content pin, in two halves. *The cells:* the content digest
/// (recorded on the last commit of the version-1 encoding) and one
/// serial all-member merge (recorded with the since-deleted SSE2 and
/// AVX2 tiers present, which all produced these values) move with any
/// change to the cell arithmetic or the update path, and with nothing
/// else. *The encoding:* the section length and FNV pin the version-2
/// bytes — tables, then the 256 live cells of 880 (version 1 wrote the
/// whole pool: 29,024 bytes, FNV `0x1382_4857_6ab7_4ce4`).
#[test]
fn arena_bits_match_recorded_golden() {
    use mpc_hashing::field::M61;
    let arena = golden_arena();
    assert_eq!(content_digest(&arena), 0x7ce8_50cc_6457_12e3);
    let bytes = snapshot_bytes(&arena);
    let snap = mpc_snapshot::Snapshot::from_bytes(&bytes).expect("readable");
    let mut r = snap.section("arena").expect("arena section");
    let section = r.take_bytes(r.remaining()).expect("whole section");
    assert_eq!(arena.live_cells(), 256);
    assert_eq!(section.len(), 40 + 168 + 648 + 32 * 256);
    assert_eq!(mpc_snapshot::fnv1a(section), 0x1506_436e_313e_f0e9);

    let members: Vec<u32> = (0..GOLDEN_N).collect();
    let mut scratch = arena.new_scratch();
    scratch.reset(0);
    assert_eq!(arena.merge_into(&members, &mut scratch), 40);
    let cells: Vec<_> = (0..scratch.levels()).map(|l| scratch.cell(l)).collect();
    let m = M61::from_reduced;
    assert_eq!(
        cells,
        [
            (-32, -3281, m(120_413_552_503_132_669)),
            (6, 58, m(2_302_207_547_187_952_505)),
            (-6, -91, m(1_379_828_408_356_076_987)),
            (2, 369, m(1_158_612_228_435_587_379)),
            (2, 239, m(1_401_698_548_495_949_774)),
            (-1, -109, m(1_490_487_090_436_558_464)),
            (0, 0, M61::ZERO),
            (0, 0, M61::ZERO),
            (-1, -200, m(1_902_125_677_298_158_359)),
            (0, 0, M61::ZERO),
            (0, 0, M61::ZERO),
        ]
    );
    assert_eq!(
        arena.sample_scratch(&scratch),
        SampleOutcome::Sample {
            index: 200,
            weight: -1
        }
    );
}

/// Serializes a bank to snapshot bytes.
fn bank_bytes(bank: &mpc_sketch::SketchBank) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("bank");
    bank.save(&mut w);
    w.end_section();
    w.finish()
}

/// `update_edges` over a whole batch equals `insert_edge` /
/// `delete_edge` one update at a time: content digest, live cells,
/// accounted words and snapshot bytes, after every batch. The batches
/// mix random inserts and deletes with a repeated edge, an insert and
/// a delete of one edge, endpoints never touched before (the vertex
/// range widens batch by batch), a batch of one, and batches far
/// longer than the write path's stack buffer. At 70 copies one edge
/// alone (140 cell writes) overflows that buffer.
#[test]
fn batched_writes_equal_one_at_a_time_writes() {
    use mpc_graph::ids::Edge;
    use mpc_sketch::SketchBank;
    const LENS: [usize; 7] = [1, 3, 17, 1, 90, 300, 2];
    for (seed, copies) in [(1u64, 3usize), (2, 8), (3, 70)] {
        let mut rng = StdRng::seed_from_u64(0xBA7C ^ seed);
        let mut batched = SketchBank::new(GOLDEN_N as usize, copies, seed);
        let mut single = batched.clone();
        let mut batches_with_fresh_endpoints = 0;
        for (b, &len) in LENS.iter().enumerate() {
            let hi = (8 + 6 * b as u32).min(GOLDEN_N);
            let random_edge = |rng: &mut StdRng| {
                let a = rng.gen_range(0..hi);
                Edge::new(a, (a + 1 + rng.gen_range(0..hi - 1)) % hi)
            };
            let mut batch: Vec<(Edge, i64)> = Vec::new();
            while batch.len() < len {
                let e = random_edge(&mut rng);
                match rng.gen_range(0..4) {
                    0 => batch.extend([(e, 1), (e, -1)]),
                    1 => batch.extend([(e, 1), (e, 1)]),
                    2 => batch.push((e, -1)),
                    _ => batch.push((e, 1)),
                }
            }
            batch.truncate(len);
            let words_before = batched.words();
            batched.update_edges(batch.iter().copied());
            batches_with_fresh_endpoints += usize::from(batched.words() > words_before);
            for &(e, delta) in &batch {
                if delta > 0 {
                    single.insert_edge(e);
                } else {
                    single.delete_edge(e);
                }
            }
            let at = format!("seed {seed} copies {copies} batch {b}");
            assert_eq!(
                content_digest(batched.arena()),
                content_digest(single.arena()),
                "{at}: cells"
            );
            assert_eq!(
                batched.arena().live_cells(),
                single.arena().live_cells(),
                "{at}: live cells"
            );
            assert_eq!(batched.words(), single.words(), "{at}: words");
            assert_eq!(bank_bytes(&batched), bank_bytes(&single), "{at}: snapshot");
        }
        assert!(batched.arena().live_cells() > 0);
        assert!(
            batches_with_fresh_endpoints >= 4,
            "seed {seed}: {batches_with_fresh_endpoints} batches touched a fresh endpoint"
        );
    }
}
