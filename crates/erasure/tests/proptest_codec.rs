//! Property-based tests for the Reed–Solomon codec: for arbitrary block
//! geometry, shard contents and erasure patterns within tolerance, decode
//! always reproduces the original data.

use proptest::collection::vec;
use proptest::prelude::*;
use uno_erasure::{CodecError, ReedSolomon};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any <= y erasures are always recovered, for random geometries.
    #[test]
    fn recovers_within_tolerance(
        x in 1usize..12,
        y in 1usize..5,
        shard_len in 1usize..128,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(x, y);
        let data: Vec<Vec<u8>> = (0..x).map(|_| (0..shard_len).map(|_| rng.gen()).collect()).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Random erasure pattern of size <= y.
        let n = x + y;
        let erasures = rng.gen_range(0..=y);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let mut killed = std::collections::HashSet::new();
        while killed.len() < erasures {
            killed.insert(rng.gen_range(0..n));
        }
        for &k in &killed {
            shards[k] = None;
        }

        rs.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &full[i]);
        }
    }

    /// More than y erasures always fail with NotEnoughShards.
    #[test]
    fn fails_beyond_tolerance(
        x in 1usize..10,
        y in 1usize..4,
        extra in 1usize..3,
        shard_len in 1usize..64,
    ) {
        let rs = ReedSolomon::new(x, y);
        let data: Vec<Vec<u8>> = (0..x).map(|i| vec![i as u8; shard_len]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.into_iter().map(Some).chain(parity.into_iter().map(Some)).collect();
        let kill = (y + extra).min(x + y);
        for s in shards.iter_mut().take(kill) {
            *s = None;
        }
        let r = rs.reconstruct(&mut shards);
        if kill > y {
            let failed = matches!(r, Err(CodecError::NotEnoughShards { .. }));
            prop_assert!(failed, "expected NotEnoughShards, got {:?}", r);
        }
    }

    /// Parity is linear: encoding the XOR of two datasets equals the XOR of
    /// their encodings (GF(2^8) addition is XOR).
    #[test]
    fn parity_is_linear(
        a in vec(any::<u8>(), 32..33),
        b in vec(any::<u8>(), 32..33),
    ) {
        let rs = ReedSolomon::new(2, 2);
        let (a1, a2) = a.split_at(16);
        let (b1, b2) = b.split_at(16);
        let pa = rs.encode(&[a1, a2]).unwrap();
        let pb = rs.encode(&[b1, b2]).unwrap();
        let x1: Vec<u8> = a1.iter().zip(b1).map(|(p, q)| p ^ q).collect();
        let x2: Vec<u8> = a2.iter().zip(b2).map(|(p, q)| p ^ q).collect();
        let px = rs.encode(&[&x1, &x2]).unwrap();
        for i in 0..2 {
            let xor: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(p, q)| p ^ q).collect();
            prop_assert_eq!(&px[i], &xor);
        }
    }
}
