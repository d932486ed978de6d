//! The mechanical-sympathy experiment behind `repro mech` (DESIGN.md §14).
//!
//! Three claims ride on the branchless kernel rewrite, and this module
//! measures all of them against the retained loop-based originals
//! ([`othello::board::reference`], compiled in via the `reference`
//! feature):
//!
//! 1. **Equivalence.** The kernels are drop-in: perft node counts agree
//!    at every depth, and `legal_moves`/`flips` agree square-for-square
//!    over a corpus of real midgame boards. (The othello crate's
//!    proptests pin the same fact on random boards; this re-checks it on
//!    the exact corpus being timed.)
//! 2. **Speed.** The `legal_moves` + `flips` microbenchmark — one call
//!    per corpus board, timed with the criterion shim's median-of-samples
//!    loop — must show at least [`MECH_MIN_SPEEDUP`]× over the loop
//!    kernels. Throughput is reported in boards (positions) per second.
//! 3. **Search neutrality.** Every search back-end (serial alpha-beta,
//!    serial ER, simulated parallel ER, threaded parallel ER across
//!    worker counts) still produces the identical root value on the O1
//!    benchmark tree, and a traced threaded run stays well-formed.
//!
//! Results print as tables and land in `results/mech.json` (linted as
//! JSON).

use criterion::{measure, Throughput};
use othello::board::reference;
use othello::Board;

use crate::json::impl_to_json;

/// Required speedup of the branchless kernels over the loop-based
/// reference on the combined `legal_moves` + `flips` microbench.
pub const MECH_MIN_SPEEDUP: f64 = 1.5;

/// Corpus size for the kernel microbenchmarks: enough midgame variety to
/// defeat branch predictors memorizing one position, small enough that
/// the working set stays cache-resident (256 boards = 4 KiB).
pub const MECH_CORPUS_BOARDS: usize = 256;

/// One kernel's old-vs-new timing row.
#[derive(Clone, Debug)]
pub struct MechKernelRow {
    /// Kernel name (`legal_moves`, `flips`).
    pub kernel: String,
    /// Median ns per board, loop-based reference.
    pub reference_ns: f64,
    /// Median ns per board, branchless rewrite.
    pub branchless_ns: f64,
    /// `reference_ns / branchless_ns`.
    pub speedup: f64,
    /// Branchless throughput in million boards per second.
    pub mboards_per_sec: f64,
}

impl_to_json!(MechKernelRow {
    kernel,
    reference_ns,
    branchless_ns,
    speedup,
    mboards_per_sec,
});

/// One search back-end's root result on the O1 tree.
#[derive(Clone, Debug)]
pub struct MechBackendRow {
    /// Back-end name.
    pub backend: String,
    /// Worker count (1 for the serial rows).
    pub workers: usize,
    /// Root value (must match across every row).
    pub value: i32,
}

impl_to_json!(MechBackendRow {
    backend,
    workers,
    value
});

/// The full `repro mech` report.
#[derive(Clone, Debug)]
pub struct MechReport {
    /// Boards in the microbenchmark corpus.
    pub corpus_boards: usize,
    /// Old-vs-new timing per kernel.
    pub kernels: Vec<MechKernelRow>,
    /// Combined `legal_moves`+`flips` speedup (total reference time over
    /// total branchless time); asserted `>=` [`MECH_MIN_SPEEDUP`].
    pub combined_speedup: f64,
    /// Perft `(depth, nodes)` rows, identical under both kernel sets.
    pub perft: Vec<(u32, u64)>,
    /// Root values per search back-end, all identical.
    pub backends: Vec<MechBackendRow>,
    /// Events recorded by the traced threaded run.
    pub trace_events: u64,
}

impl_to_json!(MechReport {
    corpus_boards,
    kernels,
    combined_speedup,
    perft,
    backends,
    trace_events,
});

/// Deterministic xorshift64* step (no external RNG dependency).
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The square index of the `k`-th set bit of `mask` (k < popcount).
fn nth_set_bit(mut mask: u64, mut k: u32) -> u8 {
    loop {
        let sq = mask.trailing_zeros();
        if k == 0 {
            return sq as u8;
        }
        mask &= mask - 1;
        k -= 1;
    }
}

/// A deterministic corpus of `n` boards with the mover to play, sampled
/// from random legal playouts restarted at the standard opening.
pub fn board_corpus(n: usize) -> Vec<Board> {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(n);
    let mut b = Board::initial();
    while out.len() < n {
        let moves = b.legal_moves();
        if moves == 0 {
            b = if b.swapped().has_moves() {
                b.swapped() // pass
            } else {
                Board::initial() // game over: restart the playout
            };
            continue;
        }
        out.push(b);
        let k = (next_rand(&mut rng) % u64::from(moves.count_ones())) as u32;
        b = b.play(nth_set_bit(moves, k));
    }
    out
}

/// Perft over the given move generator / child constructor, with the
/// standard pass rule. Generic so the same counter drives both kernel
/// sets — any divergence in rules would be a bug in this module, not a
/// masked kernel difference.
fn perft_with(b: Board, depth: u32, child: &dyn Fn(&Board, u8) -> Board) -> u64 {
    if depth == 0 {
        return 1;
    }
    let moves = b.legal_moves();
    if moves == 0 {
        if b.swapped().has_moves() {
            return perft_with(b.swapped(), depth - 1, child);
        }
        return 1; // game over
    }
    let mut nodes = 0u64;
    let mut rest = moves;
    while rest != 0 {
        let sq = rest.trailing_zeros() as u8;
        rest &= rest - 1;
        nodes += perft_with(child(&b, sq), depth - 1, child);
    }
    nodes
}

/// Builds the child position via the *loop-based* flip kernel.
fn play_reference(b: &Board, sq: u8) -> Board {
    let f = reference::flips(b, sq);
    debug_assert_ne!(f, 0, "legal move must flip");
    Board {
        own: b.opp & !f,
        opp: b.own | f | (1 << sq),
    }
}

/// Perft rows `(depth, nodes)` for 1..=`max_depth`, each depth computed
/// under both kernel sets and asserted equal.
pub fn perft_rows(max_depth: u32) -> Vec<(u32, u64)> {
    let root = Board::initial();
    (1..=max_depth)
        .map(|d| {
            let new = perft_with(root, d, &|b, sq| b.play(sq));
            let old = perft_with(root, d, &play_reference);
            assert_eq!(new, old, "perft({d}) must agree between kernel sets");
            (d, new)
        })
        .collect()
}

/// Checks `legal_moves`, `flips` and `moves_and_flips` agreement on every
/// corpus board before timing them. Returns the number of (board, move)
/// pairs — the `flips` benchmark's element count.
pub fn check_corpus_equivalence(corpus: &[Board]) -> u64 {
    let mut pairs = 0u64;
    for b in corpus {
        let moves = b.legal_moves();
        assert_eq!(
            moves,
            reference::legal_moves(b),
            "legal_moves diverges on corpus board {b:?}"
        );
        let mut rest = moves;
        while rest != 0 {
            let sq = rest.trailing_zeros() as u8;
            rest &= rest - 1;
            let (m, f) = b.moves_and_flips(sq);
            assert_eq!(m, moves, "moves_and_flips move mask diverges");
            assert_eq!(f, b.flips(sq), "fused flips diverge");
            assert_eq!(
                f,
                reference::flips(b, sq),
                "flips diverges on corpus board {b:?} sq {sq}"
            );
            pairs += 1;
        }
    }
    pairs
}

/// Times one kernel old-vs-new over the corpus and returns the row.
/// `per_board_elems` is what one full corpus sweep processes.
fn bench_kernel(
    kernel: &str,
    corpus_len: usize,
    mut reference: impl FnMut() -> u64,
    mut branchless: impl FnMut() -> u64,
) -> MechKernelRow {
    // Checksums must agree (one more equivalence pin) and feed black_box
    // so neither loop is dead-code-eliminated.
    assert_eq!(
        reference(),
        branchless(),
        "{kernel}: corpus checksums must agree"
    );
    let r = measure(u64::MAX, &mut reference).expect("reference measurement");
    let n = measure(u64::MAX, &mut branchless).expect("branchless measurement");
    let per = corpus_len as f64;
    let throughput = Throughput::Elements(corpus_len as u64);
    MechKernelRow {
        kernel: kernel.to_string(),
        reference_ns: r.median_ns / per,
        branchless_ns: n.median_ns / per,
        speedup: r.median_ns / n.median_ns,
        mboards_per_sec: n.rate_per_sec(throughput) / 1e6,
    }
}

/// Runs the kernel microbenchmarks. Returns the per-kernel rows plus the
/// combined `legal_moves`+`flips` speedup.
pub fn kernel_bench(corpus: &[Board]) -> (Vec<MechKernelRow>, f64) {
    use criterion::black_box;

    let legal = bench_kernel(
        "legal_moves",
        corpus.len(),
        || {
            let mut acc = 0u64;
            for b in corpus {
                acc ^= black_box(reference::legal_moves(b));
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for b in corpus {
                acc ^= black_box(b.legal_moves());
            }
            acc
        },
    );
    // Flips: every legal move of every corpus board. The move list is
    // recomputed inside the timed loop by each side's own move kernel, so
    // this row times the full movegen+flip path a search actually runs.
    let flips = bench_kernel(
        "flips",
        corpus.len(),
        || {
            let mut acc = 0u64;
            for b in corpus {
                let mut rest = reference::legal_moves(b);
                while rest != 0 {
                    let sq = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    acc ^= black_box(reference::flips(b, sq));
                }
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for b in corpus {
                let mut rest = b.legal_moves();
                while rest != 0 {
                    let sq = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    acc ^= black_box(b.flips(sq));
                }
            }
            acc
        },
    );
    let combined =
        (legal.reference_ns + flips.reference_ns) / (legal.branchless_ns + flips.branchless_ns);
    (vec![legal, flips], combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_legal() {
        let a = board_corpus(64);
        let b = board_corpus(64);
        assert_eq!(a, b, "corpus must be reproducible");
        for board in &a {
            assert!(board.has_moves(), "corpus boards all have a move");
            assert_eq!(board.own & board.opp, 0, "discs never overlap");
        }
        // Playouts advance: the corpus is not 64 copies of the opening.
        assert!(a.iter().any(|b| b.occupancy() > 10));
    }

    #[test]
    fn corpus_equivalence_counts_pairs() {
        let corpus = board_corpus(32);
        let pairs = check_corpus_equivalence(&corpus);
        // Every board has at least one legal move by construction.
        assert!(pairs >= 32);
    }

    #[test]
    fn perft_rows_match_the_known_table() {
        // Depths 1-4 of the table in othello's tests; deeper depths are
        // the repro binary's job (this is a unit test, keep it quick).
        assert_eq!(perft_rows(4), vec![(1, 4), (2, 12), (3, 56), (4, 244)]);
    }

    #[test]
    fn nth_set_bit_walks_the_mask() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
        assert_eq!(nth_set_bit(1 << 63, 0), 63);
    }
}
