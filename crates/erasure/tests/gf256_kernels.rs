//! Kernel-level lockdown for the split-nibble GF(2^8) tables: the slice
//! kernels (`mul_slice`, `mul_acc`) must agree with the scalar `mul` on
//! every one of the 256 coefficients, at lengths from empty to a few KiB
//! and at every start offset — plus the field's algebraic laws as a
//! proptest-style seeded sweep.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uno_erasure::gf256 as gf;

/// Lengths from empty through odd and power-of-two sizes to past an MTU.
const KERNEL_LENS: [usize; 10] = [0, 1, 3, 15, 16, 17, 32, 64, 1500, 4093];

fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// `mul_slice` ≡ per-byte scalar `mul`, for all 256 coefficients.
#[test]
fn mul_slice_matches_scalar_mul_for_every_coefficient() {
    let mut rng = SmallRng::seed_from_u64(0x517CE);
    for &len in &KERNEL_LENS {
        let src = random_bytes(&mut rng, len);
        let mut dst = vec![0u8; len];
        for c in 0..=255u8 {
            gf::mul_slice(&mut dst, &src, c);
            for (i, (&d, &s)) in dst.iter().zip(&src).enumerate() {
                assert_eq!(d, gf::mul(c, s), "c={c} len={len} byte {i}");
            }
        }
    }
}

/// `mul_acc` ≡ per-byte `dst ^= mul(c, src)`, for all 256 coefficients,
/// accumulating onto nonzero destinations.
#[test]
fn mul_acc_matches_scalar_mul_for_every_coefficient() {
    let mut rng = SmallRng::seed_from_u64(0xACC);
    for &len in &KERNEL_LENS {
        let src = random_bytes(&mut rng, len);
        let base = random_bytes(&mut rng, len);
        for c in 0..=255u8 {
            let mut dst = base.clone();
            gf::mul_acc(&mut dst, &src, c);
            for i in 0..len {
                assert_eq!(
                    dst[i],
                    base[i] ^ gf::mul(c, src[i]),
                    "c={c} len={len} byte {i}"
                );
            }
        }
    }
}

/// Unaligned starts: slicing a buffer at any offset must not change a
/// single byte of output.
#[test]
fn kernels_are_offset_independent() {
    let mut rng = SmallRng::seed_from_u64(0x0FF5E7);
    let src = random_bytes(&mut rng, 256);
    for off in 0..48usize {
        let s = &src[off..];
        let mut dst = vec![0u8; s.len()];
        gf::mul_slice(&mut dst, s, 0x8E);
        for (i, (&d, &b)) in dst.iter().zip(s).enumerate() {
            assert_eq!(d, gf::mul(0x8E, b), "offset {off} byte {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Associativity: (a·b)·c = a·(b·c).
    #[test]
    fn mul_is_associative(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
    }

    /// Distributivity over XOR: a·(b ⊕ c) = a·b ⊕ a·c.
    #[test]
    fn mul_distributes_over_add(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(
            gf::mul(a, gf::add(b, c)),
            gf::add(gf::mul(a, b), gf::mul(a, c))
        );
    }

    /// Inverse round-trip: a · a⁻¹ = 1 and (a⁻¹)⁻¹ = a for a ≠ 0.
    #[test]
    fn inv_round_trips(a in 1u8..=255) {
        prop_assert_eq!(gf::mul(a, gf::inv(a)), 1);
        prop_assert_eq!(gf::inv(gf::inv(a)), a);
    }

    /// Slice-level linearity in the source operand:
    /// c·(x ⊕ y) = c·x ⊕ c·y, computed entirely through the slice kernels.
    #[test]
    fn mul_slice_is_linear(
        c in any::<u8>(),
        seed in any::<u64>(),
        len in 0usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let xs = random_bytes(&mut rng, len);
        let ys = random_bytes(&mut rng, len);
        let sum: Vec<u8> = xs.iter().zip(&ys).map(|(a, b)| a ^ b).collect();

        let mut lhs = vec![0u8; len];
        gf::mul_slice(&mut lhs, &sum, c);

        let mut rhs = vec![0u8; len];
        gf::mul_slice(&mut rhs, &xs, c);
        gf::mul_acc(&mut rhs, &ys, c);

        prop_assert_eq!(lhs, rhs);
    }

    /// Composition through the kernels: multiplying a slice by `a` then
    /// accumulating nothing and multiplying by `b` equals multiplying by
    /// `a·b` directly.
    #[test]
    fn mul_slice_composes(
        a in any::<u8>(),
        b in any::<u8>(),
        seed in any::<u64>(),
        len in 0usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = random_bytes(&mut rng, len);
        let mut step1 = vec![0u8; len];
        gf::mul_slice(&mut step1, &src, a);
        let mut step2 = vec![0u8; len];
        gf::mul_slice(&mut step2, &step1, b);

        let mut direct = vec![0u8; len];
        gf::mul_slice(&mut direct, &src, gf::mul(a, b));
        prop_assert_eq!(step2, direct);
    }
}
