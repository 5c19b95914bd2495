//! Seeded input generation. Every input a workload hands the library is
//! a pure function of `--seed`: the fuzz recipes, explore's option
//! subset, and serve's request order and inline programs. Each input family draws from its own stream, so adding a
//! draw to one family never shifts another.

use std::collections::BTreeSet;

use emx::validate::fuzz::FuzzCase;
use proptest::test_runner::TestRng;

const FUZZ: u64 = 1;
const EXPLORE: u64 = 2;
const SERVE_ORDER: u64 = 3;
const SERVE_INLINE: u64 = 4;

/// SplitMix64 finalizer: spreads nearby seeds over the whole state space.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The generator for draw `index` of input family `stream`.
fn rng(seed: u64, stream: u64, index: u64) -> TestRng {
    TestRng::new(mix(mix(mix(seed) ^ stream) ^ index))
}

/// The calibrate workload's fuzz campaign: `n` recipes drawn through the
/// library's own [`FuzzCase::generate`].
pub fn fuzz_recipes(seed: u64, n: usize) -> Vec<FuzzCase> {
    (0..n as u64)
        .map(|i| FuzzCase::generate(&mut rng(seed, FUZZ, i)))
        .collect()
}

/// Picks `k` candidates whose instruction sets are pairwise disjoint,
/// by a seeded random greedy walk over `members` (one set of program
/// indices per candidate, in rank order). Returns their indices in rank
/// order, or `None` when twenty walks never found `k`.
///
/// Disjoint sites make every subset rewrite to a distinct workload, so
/// the space keeps all `2^k` subsets: the seed changes which
/// instructions are fused, never how many candidates are evaluated.
pub fn disjoint_subset(seed: u64, members: &[BTreeSet<usize>], k: usize) -> Option<Vec<usize>> {
    let mut rng = rng(seed, EXPLORE, 0);
    for _ in 0..20 {
        let mut order: Vec<usize> = (0..members.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut used = BTreeSet::new();
        let mut picked = Vec::new();
        for i in order {
            if picked.len() < k && members[i].is_disjoint(&used) {
                used.extend(&members[i]);
                picked.push(i);
            }
        }
        if picked.len() == k {
            picked.sort_unstable();
            return Some(picked);
        }
    }
    None
}

/// One request of serve's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A by-name estimate of Table II application number `.0`.
    App(usize),
    /// An inline base-ISA program, unique within the run.
    Inline(String),
}

/// Request `index` of serve's plan over `apps` applications. Each block
/// of ten requests holds exactly one inline program, at a seeded
/// position; the other nine name seeded applications.
pub fn serve_request(seed: u64, index: u64, apps: usize) -> Request {
    let block = index / 10;
    let inline_slot = rng(seed, SERVE_ORDER, block).next_u64() % 10;
    if index % 10 == inline_slot {
        Request::Inline(inline_program(seed, index))
    } else {
        Request::App((rng(seed, SERVE_ORDER, index | 1 << 63).next_u64() % apps as u64) as usize)
    }
}

/// Loop-body operations of inline programs: base-ISA ALU work over
/// `a3..a7` that can neither fault nor branch.
const BODY_OPS: [&str; 10] = [
    "add a4, a4, a3",
    "sub a5, a5, a4",
    "xor a6, a6, a5",
    "and a7, a6, a3",
    "or a4, a4, a7",
    "slli a5, a4, 3",
    "srli a6, a5, 2",
    "mul a7, a7, a3",
    "addi a3, a3, 7",
    "l32i a5, 0(a8)",
];

/// The inline program of request `index`: a seeded loop of 6–9
/// operations whose trip count is uniform over 500–12 499, so misses
/// simulate from about 5 000 to 120 000 instructions. The p99 of a
/// phase then falls inside this spread of ISS work rather than on the
/// few requests a host scheduling stall delays. The request index is
/// materialized into `a9`/`a10`, so no two requests of one run share a
/// program and every one misses the service's cache.
pub fn inline_program(seed: u64, index: u64) -> String {
    let mut rng = rng(seed, SERVE_INLINE, index);
    let iters = 500 + rng.next_u64() % 12_000;
    let ops = 6 + rng.next_u64() % 4;
    let mut src = format!(
        ".data\nbuf: .word 3\n.text\nmovi a9, {}\nmovi a10, {}\nmovi a8, buf\n\
         movi a2, {iters}\nmovi a3, {}\nl:\n",
        index & 0x7fff,
        (index >> 15) & 0x7fff,
        1 + rng.next_u64() % 1000,
    );
    for _ in 0..ops {
        src.push_str(BODY_OPS[(rng.next_u64() % BODY_OPS.len() as u64) as usize]);
        src.push('\n');
    }
    src.push_str("addi a2, a2, -1\nbnez a2, l\nhalt\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_seed_gives_the_same_inputs_every_time() {
        assert_eq!(fuzz_recipes(7, 5), fuzz_recipes(7, 5));
        assert_ne!(fuzz_recipes(7, 5), fuzz_recipes(8, 5));
        assert_eq!(serve_request(7, 13, 10), serve_request(7, 13, 10));
    }

    #[test]
    fn every_block_of_ten_has_exactly_one_inline_program() {
        for seed in [1, 2, 3] {
            for block in 0..50u64 {
                let inline = (block * 10..block * 10 + 10)
                    .filter(|&i| matches!(serve_request(seed, i, 10), Request::Inline(_)))
                    .count();
                assert_eq!(inline, 1, "seed {seed} block {block}");
            }
        }
    }

    #[test]
    fn inline_programs_are_unique_within_a_run() {
        let programs: BTreeSet<String> = (0..5000).map(|i| inline_program(9, i)).collect();
        assert_eq!(programs.len(), 5000);
    }

    #[test]
    fn disjoint_subsets_are_disjoint_and_sized() {
        let members: Vec<BTreeSet<usize>> = (0..12)
            .map(|i| [i % 6, 100 + i].into_iter().collect())
            .collect();
        let picked = disjoint_subset(5, &members, 6).expect("six disjoint sets exist");
        assert_eq!(picked.len(), 6);
        for (a, &i) in picked.iter().enumerate() {
            for &j in &picked[a + 1..] {
                assert!(members[i].is_disjoint(&members[j]));
            }
        }
        assert_eq!(disjoint_subset(5, &members, 7), None);
    }
}
