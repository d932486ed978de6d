//! Random uniform game trees (paper §7, trees R1–R3).
//!
//! "For the random trees, each leaf was assigned an independent
//! pseudo-random value drawn from a uniform distribution."
//!
//! Every node is identified by a 64-bit key that is a pure function of the
//! tree seed and the path of child indices from the root, so the same tree
//! is seen by every algorithm (serial, simulated-parallel, and threaded)
//! without materializing it. Hashing uses the SplitMix64 finalizer, whose
//! output is statistically uniform.

use crate::position::GamePosition;
use crate::value::Value;

/// Parameters of a random uniform tree.
///
/// The paper's trees: R1 = degree 4, 10 ply; R2 = degree 4, 11 ply;
/// R3 = degree 8, 7 ply (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RandomTreeSpec {
    /// Seed selecting the tree.
    pub seed: u64,
    /// Branching factor of every interior node.
    pub degree: u32,
    /// Height of the tree in plies; leaves live at depth `height`.
    pub height: u32,
    /// Leaf values are uniform over `[-value_range, value_range]`.
    pub value_range: i32,
}

impl RandomTreeSpec {
    /// A spec with the paper's leaf-value convention (uniform distribution;
    /// we use a symmetric range of ±10_000).
    pub fn new(seed: u64, degree: u32, height: u32) -> RandomTreeSpec {
        RandomTreeSpec {
            seed,
            degree,
            height,
            value_range: 10_000,
        }
    }

    /// The root position of this tree.
    pub fn root(self) -> RandomPos {
        RandomPos {
            spec: self,
            key: splitmix64(self.seed ^ 0x9e37_79b9_7f4a_7c15),
            depth: 0,
        }
    }

    /// Total number of leaves, `degree^height` (saturating).
    pub fn leaf_count(self) -> u128 {
        (self.degree as u128).pow(self.height)
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix on 64 bits.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A node of a random uniform tree. `Copy` and 24 bytes, so positions are
/// free to pass around.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RandomPos {
    spec: RandomTreeSpec,
    key: u64,
    depth: u32,
}

impl RandomPos {
    /// Depth of this node below the root (root = 0).
    pub fn depth(self) -> u32 {
        self.depth
    }

    /// Remaining plies until this tree's leaves.
    pub fn remaining(self) -> u32 {
        self.spec.height - self.depth
    }

    /// The node's unique key (a pure function of seed and path).
    pub fn key(self) -> u64 {
        self.key
    }

    /// The uniform value in `[-range, range]` derived from the node key.
    fn hashed_value(self) -> Value {
        let range = self.spec.value_range as i64;
        let span = 2 * range + 1;
        let v = (splitmix64(self.key) % span as u64) as i64 - range;
        Value::new(v as i32)
    }
}

impl GamePosition for RandomPos {
    type Move = u32;

    fn moves_into(&self, out: &mut Vec<u32>) {
        let degree = self.degree();
        out.reserve_exact(degree);
        out.extend(0..degree as u32);
    }

    fn play(&self, mv: &u32) -> RandomPos {
        debug_assert!(*mv < self.spec.degree && self.depth < self.spec.height);
        RandomPos {
            spec: self.spec,
            key: splitmix64(self.key ^ ((*mv as u64 + 1) << 1)),
            depth: self.depth + 1,
        }
    }

    /// At a leaf this is the leaf's independent uniform value. At interior
    /// nodes it is an *uncorrelated* uniform value: the paper applies no
    /// child sorting to random trees, and an uncorrelated static value
    /// preserves that (sorting by it is equivalent to a random shuffle).
    fn evaluate(&self) -> Value {
        self.hashed_value()
    }

    fn degree(&self) -> usize {
        if self.depth >= self.spec.height {
            0
        } else {
            self.spec.degree as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn leaves_appear_exactly_at_height() {
        let root = RandomTreeSpec::new(1, 3, 2).root();
        assert_eq!(root.moves().len(), 3);
        let child = root.play(&0);
        assert_eq!(child.moves().len(), 3);
        let leaf = child.play(&2);
        assert!(leaf.moves().is_empty());
        assert_eq!(leaf.remaining(), 0);
    }

    #[test]
    fn tree_is_deterministic() {
        let a = RandomTreeSpec::new(42, 4, 5).root().play(&1).play(&3);
        let b = RandomTreeSpec::new(42, 4, 5).root().play(&1).play(&3);
        assert_eq!(a, b);
        assert_eq!(a.evaluate(), b.evaluate());
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let a = RandomTreeSpec::new(1, 4, 5).root().play(&0).play(&0);
        let b = RandomTreeSpec::new(2, 4, 5).root().play(&0).play(&0);
        assert_ne!(a.evaluate(), b.evaluate());
    }

    #[test]
    fn sibling_keys_are_distinct() {
        let root = RandomTreeSpec::new(7, 8, 3).root();
        let keys: HashSet<u64> = root.children().iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn leaf_values_within_range() {
        let spec = RandomTreeSpec {
            value_range: 100,
            ..RandomTreeSpec::new(3, 4, 4)
        };
        let mut stack = vec![spec.root()];
        while let Some(p) = stack.pop() {
            if p.moves().is_empty() {
                let v = p.evaluate().get();
                assert!((-100..=100).contains(&v), "leaf value {v} out of range");
            } else {
                stack.extend(p.children());
            }
        }
    }

    #[test]
    fn leaf_values_look_uniform() {
        // Chi-squared-ish sanity check: bucket 4^5 = 1024 leaves of a tree
        // into 8 bins; each bin should be populated well away from zero.
        let spec = RandomTreeSpec {
            value_range: 1000,
            ..RandomTreeSpec::new(11, 4, 5)
        };
        let mut bins = [0u32; 8];
        let mut stack = vec![spec.root()];
        while let Some(p) = stack.pop() {
            if p.moves().is_empty() {
                let v = p.evaluate().get() + 1000; // 0..=2000
                bins[(v as usize * 8 / 2001).min(7)] += 1;
            } else {
                stack.extend(p.children());
            }
        }
        let total: u32 = bins.iter().sum();
        assert_eq!(total, 1024);
        for (i, &b) in bins.iter().enumerate() {
            assert!(b > 64, "bin {i} severely underpopulated: {b}");
        }
    }

    #[test]
    fn leaf_count_formula() {
        assert_eq!(RandomTreeSpec::new(0, 4, 10).leaf_count(), 4u128.pow(10));
        assert_eq!(RandomTreeSpec::new(0, 8, 7).leaf_count(), 8u128.pow(7));
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low bits should differ even for adjacent inputs.
        assert_ne!(splitmix64(100) & 0xffff, splitmix64(101) & 0xffff);
    }
}
