//! Arithmetic in GF(2^8) with the AES/RS-standard reduction polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D), via exp/log tables — plus the two
//! slice kernels the codec runs on.
//!
//! # Split tables
//!
//! The slice kernels ([`mul_acc`], [`mul_slice`]) do not build a 256-entry
//! product row per call. Multiplication by a fixed coefficient `c` is a
//! GF(2)-linear map, so `c·b = c·(b_lo) ⊕ c·(b_hi << 4)`: one 16-entry table
//! for the low nibble and one for the high nibble cover every byte value.
//! Both tables for all 256 coefficients are precomputed at compile time
//! (8 KiB total, [`SPLIT`]), and a single coefficient's working set is 32
//! bytes. Each kernel is one scalar loop over those two tables, pinned to
//! scalar [`mul`] by tests. No simulated path runs the codec, so nothing
//! here is tuned for throughput.

/// Reduction polynomial (without the x^8 term) for table generation.
const POLY: u16 = 0x11D;

/// Exponentiation and logarithm tables, built once at startup.
pub struct Tables {
    /// `exp[i] = g^i` for generator g = 2; doubled length avoids a mod in mul.
    pub exp: [u8; 512],
    /// `log[x]` for x != 0; `log[0]` is unused.
    pub log: [u16; 256],
}

/// Build the exp/log tables for generator 2.
pub const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u16; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u16;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Extend so products of logs index without reduction.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    Tables { exp, log }
}

static TABLES: Tables = build_tables();

/// Split low/high-nibble product tables for every coefficient:
/// `lo[c][i] = c·i` and `hi[c][i] = c·(i << 4)` for `i` in `0..16`, so
/// `c·b = lo[c][b & 15] ^ hi[c][b >> 4]`.
pub struct SplitTables {
    /// Low-nibble products.
    pub lo: [[u8; 16]; 256],
    /// High-nibble products.
    pub hi: [[u8; 16]; 256],
}

/// Carry-less (Russian-peasant) multiply, const-evaluable; table builds
/// only — the runtime paths all go through the tables it fills.
const fn const_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= (POLY & 0xFF) as u8;
        }
        b >>= 1;
    }
    p
}

/// Build the split-nibble tables at compile time.
pub const fn build_split_tables() -> SplitTables {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut i = 0usize;
        while i < 16 {
            lo[c][i] = const_mul(c as u8, i as u8);
            hi[c][i] = const_mul(c as u8, (i << 4) as u8);
            i += 1;
        }
        c += 1;
    }
    SplitTables { lo, hi }
}

/// The precomputed split tables (8 KiB; a single coefficient uses 32 bytes).
pub static SPLIT: SplitTables = build_split_tables();

/// Add in GF(2^8) (XOR).
#[inline(always)]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiply in GF(2^8).
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        let t = &TABLES;
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(2^8)");
    let t = &TABLES;
    t.exp[255 - t.log[a as usize] as usize]
}

// ---------------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------------

/// `dst[i] ^= c * src[i]`: the kernel of encode and decode.
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len());
    let (lo, hi) = (&SPLIT.lo[c as usize], &SPLIT.hi[c as usize]);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// `dst[i] = c * src[i]`.
pub fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len());
    let (lo, hi) = (&SPLIT.lo[c as usize], &SPLIT.hi[c as usize]);
    for (d, s) in dst.iter_mut().zip(src) {
        *d = lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(add(7, 7), 0);
    }

    #[test]
    fn mul_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(31) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(17) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn known_aes_field_values() {
        // 0x53 * 0xCA = 0x01 in the 0x11B field, but we use 0x11D (the RS
        // convention): verify against an independently computed product.
        // Russian-peasant multiplication as oracle:
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xFF) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in (0..=255u8).step_by(3) {
            for b in (0..=255u8).step_by(9) {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn split_tables_cover_every_product() {
        // The split decomposition must reproduce the full 256x256 product
        // table: c*b = lo[c][b & 15] ^ hi[c][b >> 4].
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let split = SPLIT.lo[c as usize][(b & 0x0F) as usize]
                    ^ SPLIT.hi[c as usize][(b >> 4) as usize];
                assert_eq!(split, mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn mul_acc_kernel() {
        let src = [1u8, 2, 3, 255];
        let mut dst = [10u8, 20, 30, 40];
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| d ^ mul(7, s)).collect();
        mul_acc(&mut dst, &src, 7);
        assert_eq!(dst.to_vec(), expect);
    }

    #[test]
    fn mul_slice_kernel() {
        let src = [9u8, 0, 1, 128];
        let mut dst = [0u8; 4];
        mul_slice(&mut dst, &src, 3);
        for (d, s) in dst.iter().zip(&src) {
            assert_eq!(*d, mul(3, *s));
        }
        mul_slice(&mut dst, &src, 1);
        assert_eq!(dst, src);
        mul_slice(&mut dst, &src, 0);
        assert_eq!(dst, [0; 4]);
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }
}
