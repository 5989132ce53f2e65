//! Differential oracle: the `uno-erasure` split-table codec against the
//! naive O(n·k) Reed–Solomon reference, which shares no code with it. Any
//! single-byte disagreement on encode or decode across geometries and
//! erasure patterns is a failure in one of the two implementations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uno_erasure::ReedSolomon;
use uno_testkit::NaiveReedSolomon;

const GEOMETRIES: [(usize, usize); 7] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 4), (8, 2), (10, 4)];

fn random_shards(rng: &mut SmallRng, x: usize, len: usize) -> Vec<Vec<u8>> {
    (0..x)
        .map(|_| (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect())
        .collect()
}

#[test]
fn encoders_agree_byte_for_byte() {
    let mut rng = SmallRng::seed_from_u64(0xEC);
    for &(x, y) in &GEOMETRIES {
        for len in [1usize, 16, 257] {
            let data = random_shards(&mut rng, x, len);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let fast = ReedSolomon::new(x, y).encode(&refs).unwrap();
            let slow = NaiveReedSolomon::new(x, y).encode(&data);
            assert_eq!(fast, slow, "parity mismatch at ({x},{y}) len {len}");
        }
    }
}

#[test]
fn decoders_agree_on_every_loss_pattern() {
    let mut rng = SmallRng::seed_from_u64(0xDEC0DE);
    for &(x, y) in &GEOMETRIES {
        let n = x + y;
        let data = random_shards(&mut rng, x, 24);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = ReedSolomon::new(x, y).encode(&refs).unwrap();
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Exhaustive single and double erasures (every legal pattern for
        // the paper geometry), plus a handful of random y-sized erasures.
        let mut patterns: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        if y >= 2 {
            for i in 0..n {
                for j in i + 1..n {
                    patterns.push(vec![i, j]);
                }
            }
        }
        for _ in 0..8 {
            let mut p: Vec<usize> = Vec::new();
            while p.len() < y {
                let c = rng.gen_range(0..n);
                if !p.contains(&c) {
                    p.push(c);
                }
            }
            patterns.push(p);
        }

        for lost in patterns {
            if lost.len() > y {
                continue;
            }
            // Codec under test.
            let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
            for &i in &lost {
                shards[i] = None;
            }
            ReedSolomon::new(x, y)
                .reconstruct(&mut shards)
                .unwrap_or_else(|e| panic!("({x},{y}) lost {lost:?}: {e}"));
            let fast: Vec<Vec<u8>> = shards.into_iter().map(Option::unwrap).collect();

            // Naive oracle from the same survivor set.
            let survivors: Vec<(usize, Vec<u8>)> = (0..n)
                .filter(|i| !lost.contains(i))
                .map(|i| (i, all[i].clone()))
                .collect();
            let slow = NaiveReedSolomon::new(x, y).recover(&survivors).unwrap();

            assert_eq!(fast, slow, "({x},{y}) lost {lost:?}");
            assert_eq!(fast, all, "({x},{y}) lost {lost:?}: wrong reconstruction");
        }
    }
}

// --------------------------------------------------------------------------
// Property grid: the codec's three calls against the naive oracle over the
// geometry × shard-length × erasure-pattern cube. Everything is seeded and
// deterministic.
// --------------------------------------------------------------------------

/// The grid geometries from ROADMAP item 3: paper default, its neighbours,
/// and two wide codes that stress >16-survivor decode matrices.
const GRID_GEOMETRIES: [(usize, usize); 5] = [(4, 2), (8, 2), (8, 4), (16, 4), (32, 8)];

/// Shard lengths: a single byte, 64, an MTU-ish 1500, and an odd 333.
const GRID_LENS: [usize; 4] = [1, 64, 1500, 333];

/// Erasure patterns of size `1..=y`: exhaustive when the total count fits
/// `cap`, otherwise all singles plus seeded-random distinct patterns (biased
/// to include the extreme all-data and all-parity losses) up to `cap`.
fn grid_patterns(n: usize, y: usize, cap: usize, rng: &mut SmallRng) -> Vec<Vec<usize>> {
    fn extend_exhaustive(base: &mut Vec<Vec<usize>>, n: usize, size: usize) {
        let mut idx: Vec<usize> = (0..size).collect();
        loop {
            base.push(idx.clone());
            // Next combination in lexicographic order.
            let mut i = size;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if idx[i] != i + n - size {
                    break;
                }
                if i == 0 {
                    return;
                }
            }
            idx[i] += 1;
            for j in i + 1..size {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }
    fn count_exhaustive(n: usize, y: usize) -> usize {
        let mut total = 0usize;
        for size in 1..=y {
            let mut c = 1usize;
            for k in 0..size {
                c = c * (n - k) / (k + 1);
            }
            total += c;
        }
        total
    }
    let mut patterns: Vec<Vec<usize>> = Vec::new();
    if count_exhaustive(n, y) <= cap {
        for size in 1..=y {
            extend_exhaustive(&mut patterns, n, size);
        }
        return patterns;
    }
    // Sampled regime: all singles, the two extremes, then random fill.
    patterns.extend((0..n).map(|i| vec![i]));
    patterns.push((0..y).collect()); // first y data shards
    patterns.push((n - y..n).collect()); // all parity shards
    let mut seen: std::collections::HashSet<Vec<usize>> = patterns.iter().cloned().collect();
    while patterns.len() < cap {
        let size = rng.gen_range(2..=y);
        let mut p: Vec<usize> = Vec::new();
        while p.len() < size {
            let c = rng.gen_range(0..n);
            if !p.contains(&c) {
                p.push(c);
            }
        }
        p.sort_unstable();
        if seen.insert(p.clone()) {
            patterns.push(p);
        }
    }
    patterns
}

#[test]
fn property_grid_encoders_agree() {
    let mut rng = SmallRng::seed_from_u64(0x6121D);
    for &(x, y) in &GRID_GEOMETRIES {
        let rs = ReedSolomon::new(x, y);
        let naive = NaiveReedSolomon::new(x, y);
        for &len in &GRID_LENS {
            let data = random_shards(&mut rng, x, len);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let fast = rs.encode(&refs).unwrap();
            let slow = naive.encode(&data);
            assert_eq!(fast, slow, "parity mismatch at ({x},{y}) len {len}");
        }
    }
}

#[test]
fn property_grid_decoders_agree() {
    let mut rng = SmallRng::seed_from_u64(0xDEC0DE2);
    for &(x, y) in &GRID_GEOMETRIES {
        let n = x + y;
        let rs = ReedSolomon::new(x, y);
        let naive = NaiveReedSolomon::new(x, y);
        // Keep the debug-profile oracle cost bounded: the wide geometries
        // get a seeded sample on top of exhaustive singles + extremes, and
        // only the len-64 column runs the full pattern set — the other
        // shard lengths take every 8th pattern.
        let cap = if n <= 12 { 128 } else { 32 };
        let patterns = grid_patterns(n, y, cap, &mut rng);
        let per_len: Vec<Vec<Vec<u8>>> = GRID_LENS
            .iter()
            .map(|&len| {
                let data = random_shards(&mut rng, x, len);
                let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
                let parity = rs.encode(&refs).unwrap();
                data.into_iter().chain(parity).collect()
            })
            .collect();
        for (li, all) in per_len.iter().enumerate() {
            let step = if GRID_LENS[li] == 64 { 1 } else { 8 };
            for (pi, lost) in patterns.iter().enumerate().step_by(step) {
                let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
                for &i in lost {
                    shards[i] = None;
                }
                rs.reconstruct(&mut shards)
                    .unwrap_or_else(|e| panic!("({x},{y}) lost {lost:?}: {e}"));
                let fast: Vec<Vec<u8>> = shards.into_iter().map(Option::unwrap).collect();

                // Every reconstruction is pinned to the known-good block;
                // the naive oracle (whose per-byte exhaustive-search field
                // ops make wide codes expensive under the debug profile)
                // additionally cross-checks everything for small codes and
                // a len-64 pattern sample for the wide ones.
                assert_eq!(fast, *all, "({x},{y}) lost {lost:?}: wrong reconstruction");
                if n <= 10 || (GRID_LENS[li] == 64 && pi % 4 == 0) {
                    let survivors: Vec<(usize, Vec<u8>)> = (0..n)
                        .filter(|i| !lost.contains(i))
                        .map(|i| (i, all[i].clone()))
                        .collect();
                    let slow = naive.recover(&survivors).unwrap();
                    assert_eq!(fast, slow, "({x},{y}) lost {lost:?}");
                }
            }
        }
    }
}

#[test]
fn property_grid_indexed_agrees() {
    let mut rng = SmallRng::seed_from_u64(0x1D37);
    for &(x, y) in &GRID_GEOMETRIES {
        let n = x + y;
        let rs = ReedSolomon::new(x, y);
        let naive = NaiveReedSolomon::new(x, y);
        let data = random_shards(&mut rng, x, 97);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for _ in 0..6 {
            // Random survivor set of random sufficient size, in random
            // wire-arrival order.
            let keep = rng.gen_range(x..=n);
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let wire: Vec<(usize, Vec<u8>)> = order
                .iter()
                .take(keep)
                .map(|&i| (i, all[i].clone()))
                .collect();
            let fast = rs.reconstruct_indexed(&wire).unwrap();
            let slow = naive.recover(&wire).unwrap();
            assert_eq!(fast, slow, "({x},{y}) wire {:?}", &order[..keep]);
            assert_eq!(fast, all, "({x},{y}) wire {:?}", &order[..keep]);
        }
    }
}

#[test]
fn indexed_reconstruction_agrees_with_oracle() {
    let mut rng = SmallRng::seed_from_u64(7);
    let (x, y) = (8usize, 2usize);
    let rs = ReedSolomon::new(x, y);
    let data = random_shards(&mut rng, x, 64);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = rs.encode(&refs).unwrap();
    let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

    // Arbitrary wire arrival order with the two data losses 3 and 6.
    let order = [9usize, 0, 8, 1, 2, 4, 5, 7];
    let wire: Vec<(usize, Vec<u8>)> = order.iter().map(|&i| (i, all[i].clone())).collect();
    let fast = rs.reconstruct_indexed(&wire).unwrap();
    let slow = NaiveReedSolomon::new(x, y).recover(&wire).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast, all);
}
