//! Systematic Reed–Solomon erasure codec.
//!
//! UnoRC (paper §4.2) divides each inter-DC message into *blocks* of
//! `n = x + y` packets — `x` data packets plus `y` parity packets computed
//! with an MDS code — so a block is recoverable from *any* `x` of its `n`
//! packets. This module is the real byte-level codec; the simulator relies
//! on its recoverability semantics.
//!
//! Two API layers share the same math and produce identical bytes:
//!
//! * the allocating calls ([`ReedSolomon::encode`],
//!   [`ReedSolomon::reconstruct`]) — easy to use, fresh `Vec`s per call;
//! * the pooled calls ([`ReedSolomon::encode_into`],
//!   [`ReedSolomon::reconstruct_with`]) — caller-owned
//!   [`ShardPool`]/[`CodecScratch`] buffers, zero heap allocations at steady
//!   state (enforced by `tests/zero_alloc.rs`).
//!
//! `reconstruct` additionally memoizes decoding matrices: the inverse of the
//! generator submatrix depends only on *which* shards survived, so it is
//! cached per erasure pattern (keyed by the present-shard bitmap) and each
//! pattern pays for Gauss–Jordan inversion once per codec instance.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::gf256 as gf;
use crate::matrix::Matrix;
use crate::pool::{CodecScratch, ShardPool};

/// Errors returned by the codec.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Fewer than `x` shards were present.
    NotEnoughShards {
        /// Shards available.
        have: usize,
        /// Shards required (`x`).
        need: usize,
    },
    /// Shards had inconsistent lengths.
    ShardSizeMismatch,
    /// Wrong number of shard slots passed (must be `x + y`).
    WrongShardCount {
        /// Slots passed.
        got: usize,
        /// Slots expected.
        expected: usize,
    },
    /// Invalid code geometry: zero data/parity shards, or `x + y > 256`
    /// (GF(2^8) supports at most 256 distinct shard identities).
    InvalidGeometry {
        /// Requested data shards (`x`).
        data: usize,
        /// Requested parity shards (`y`).
        parity: usize,
    },
    /// A shard index outside `0..x+y` was supplied.
    ShardIndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Total shard slots (`x + y`).
        total: usize,
    },
    /// The same shard index was supplied more than once.
    DuplicateShardIndex {
        /// Offending index.
        index: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::NotEnoughShards { have, need } => {
                write!(f, "not enough shards: have {have}, need {need}")
            }
            CodecError::ShardSizeMismatch => write!(f, "shard sizes differ"),
            CodecError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shard slots, got {got}")
            }
            CodecError::InvalidGeometry { data, parity } => {
                write!(f, "invalid code geometry ({data}, {parity}): need data >= 1, parity >= 1, data + parity <= 256")
            }
            CodecError::ShardIndexOutOfRange { index, total } => {
                write!(f, "shard index {index} out of range 0..{total}")
            }
            CodecError::DuplicateShardIndex { index } => {
                write!(f, "shard index {index} supplied more than once")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bitmap over shard indices `0..256`: the cache key for decoding matrices.
/// Bit `i` set means shard `i` is among the `x` survivors used for decoding.
type InvKey = [u64; 4];

/// A systematic `(x, y)` Reed–Solomon code: `x` data shards, `y` parity
/// shards, tolerating any `y` erasures. The paper's default is `(8, 2)`
/// (20 % overhead).
#[derive(Debug)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// The `y × x` Cauchy parity matrix.
    parity_matrix: Matrix,
    /// Decoding matrices memoized per erasure pattern. The inverse of the
    /// generator submatrix depends only on which `x` shards decode uses, so
    /// repeated loss patterns (the common case: a lossy path erases the
    /// same positions block after block) skip Gauss–Jordan entirely.
    inv_cache: Mutex<HashMap<InvKey, Matrix>>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> Self {
        // The cache is warm state, not identity: a clone starts cold.
        ReedSolomon {
            data_shards: self.data_shards,
            parity_shards: self.parity_shards,
            parity_matrix: self.parity_matrix.clone(),
            inv_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl ReedSolomon {
    /// Create an `(data_shards, parity_shards)` code.
    ///
    /// # Panics
    /// If either count is zero or their sum exceeds 256. Use
    /// [`ReedSolomon::try_new`] for a non-panicking constructor.
    pub fn new(data_shards: usize, parity_shards: usize) -> Self {
        assert!(data_shards > 0, "need at least one data shard");
        assert!(parity_shards > 0, "need at least one parity shard");
        Self::try_new(data_shards, parity_shards).expect("geometry validated above")
    }

    /// Create an `(data_shards, parity_shards)` code, rejecting invalid
    /// geometries (`x == 0`, `y == 0`, `x + y > 256`) with an error instead
    /// of panicking.
    pub fn try_new(data_shards: usize, parity_shards: usize) -> Result<Self, CodecError> {
        if data_shards == 0 || parity_shards == 0 || data_shards + parity_shards > 256 {
            return Err(CodecError::InvalidGeometry {
                data: data_shards,
                parity: parity_shards,
            });
        }
        Ok(ReedSolomon {
            data_shards,
            parity_shards,
            parity_matrix: Matrix::cauchy(parity_shards, data_shards),
            inv_cache: Mutex::new(HashMap::new()),
        })
    }

    /// Number of data shards (`x`).
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards (`y`).
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total shards per block (`n = x + y`).
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// Fractional wire overhead `y / x` (paper: 2/8 = 25 % extra packets,
    /// i.e. parity is 20 % of the transmitted total).
    pub fn overhead(&self) -> f64 {
        self.parity_shards as f64 / self.data_shards as f64
    }

    /// Number of distinct erasure patterns whose decoding matrix is cached.
    pub fn cached_inversions(&self) -> usize {
        self.inv_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Compute parity shards for `data` (all shards must be equal length).
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodecError> {
        let mut parity = vec![Vec::new(); self.parity_shards];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Compute parity shards for `data` into caller-owned buffers.
    ///
    /// `parity` must have `y` entries; each is resized to the data shard
    /// length (allocation-free when its capacity already suffices — e.g.
    /// buffers from a warmed [`ShardPool`]). Byte-identical to
    /// [`ReedSolomon::encode`].
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), CodecError> {
        if data.len() != self.data_shards {
            return Err(CodecError::WrongShardCount {
                got: data.len(),
                expected: self.data_shards,
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(CodecError::ShardSizeMismatch);
        }
        if parity.len() != self.parity_shards {
            return Err(CodecError::WrongShardCount {
                got: parity.len(),
                expected: self.parity_shards,
            });
        }
        for (i, out) in parity.iter_mut().enumerate() {
            out.clear();
            out.resize(len, 0);
            for (j, shard) in data.iter().enumerate() {
                // First row term overwrites (skips the zeroing pass);
                // the rest XOR-accumulate. Whole-shard batch kernels.
                if j == 0 {
                    gf::mul_slice(out, shard, self.parity_matrix[(i, 0)]);
                } else {
                    gf::mul_acc(out, shard, self.parity_matrix[(i, j)]);
                }
            }
        }
        Ok(())
    }

    /// Reconstruct missing shards in place.
    ///
    /// `shards` has `x + y` slots ordered data-then-parity; `None` marks an
    /// erasure. On success every slot is `Some` and the first `x` slots hold
    /// the original data.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        let mut scratch = CodecScratch::new();
        let mut pool = ShardPool::new();
        self.reconstruct_with(shards, &mut scratch, &mut pool)
    }

    /// [`ReedSolomon::reconstruct`] with caller-owned scratch and buffer
    /// pool: recovered shards are taken from `pool`, index bookkeeping lives
    /// in `scratch`, and on a decoding-matrix cache hit the call performs no
    /// heap allocation. Byte-identical to `reconstruct`.
    pub fn reconstruct_with(
        &self,
        shards: &mut [Option<Vec<u8>>],
        scratch: &mut CodecScratch,
        pool: &mut ShardPool,
    ) -> Result<(), CodecError> {
        let x = self.data_shards;
        let n = self.total_shards();
        if shards.len() != n {
            return Err(CodecError::WrongShardCount {
                got: shards.len(),
                expected: n,
            });
        }
        scratch.present.clear();
        scratch
            .present
            .extend((0..n).filter(|&i| shards[i].is_some()));
        if scratch.present.len() < x {
            return Err(CodecError::NotEnoughShards {
                have: scratch.present.len(),
                need: x,
            });
        }
        if scratch.present.len() == n {
            return Ok(()); // nothing missing
        }
        let len = shards[scratch.present[0]].as_ref().unwrap().len();
        if scratch
            .present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(CodecError::ShardSizeMismatch);
        }

        // Decode from the first x present shards. The inverse of the
        // corresponding generator submatrix depends only on that index set,
        // so look it up by bitmap and invert only on first sight.
        let mut key: InvKey = [0; 4];
        for &i in scratch.present.iter().take(x) {
            key[i / 64] |= 1 << (i % 64);
        }
        let mut cache = self.inv_cache.lock().unwrap_or_else(|e| e.into_inner());
        let inv = cache.entry(key).or_insert_with(|| {
            let rows: Vec<Vec<u8>> = scratch
                .present
                .iter()
                .take(x)
                .map(|&i| self.generator_row(i))
                .collect();
            let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
            Matrix::from_rows(&row_refs)
                .inverse()
                .expect("Cauchy generator submatrices are always invertible")
        });

        // data[j] = sum_k inv[j][k] * received[k]. Missing slots are filled
        // as they are computed; `present` only names originally-present
        // shards, so later recoveries never read a just-filled slot.
        for j in 0..x {
            if shards[j].is_some() {
                continue; // data shard already present
            }
            let mut out = pool.take(len);
            for (k, &pi) in scratch.present.iter().take(x).enumerate() {
                gf::mul_acc(&mut out, shards[pi].as_ref().unwrap(), inv[(j, k)]);
            }
            shards[j] = Some(out);
        }
        drop(cache);

        // Re-encode any missing parity from the (now complete) data.
        for i in 0..self.parity_shards {
            if shards[x + i].is_some() {
                continue;
            }
            let mut out = pool.take(len);
            for (j, shard) in shards.iter().take(x).enumerate() {
                gf::mul_acc(
                    &mut out,
                    shard.as_ref().unwrap(),
                    self.parity_matrix[(i, j)],
                );
            }
            shards[x + i] = Some(out);
        }
        Ok(())
    }

    /// Reconstruct a full block from `(shard_index, shard_bytes)` pairs, as
    /// arriving off the wire in arbitrary order. Rejects out-of-range and
    /// duplicate indices with an error (a hostile or buggy peer must not be
    /// able to panic the codec). Returns all `x + y` shards, data first.
    pub fn reconstruct_indexed(
        &self,
        shards: &[(usize, Vec<u8>)],
    ) -> Result<Vec<Vec<u8>>, CodecError> {
        let n = self.total_shards();
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; n];
        for (index, bytes) in shards {
            if *index >= n {
                return Err(CodecError::ShardIndexOutOfRange {
                    index: *index,
                    total: n,
                });
            }
            if slots[*index].is_some() {
                return Err(CodecError::DuplicateShardIndex { index: *index });
            }
            slots[*index] = Some(bytes.clone());
        }
        self.reconstruct(&mut slots)?;
        Ok(slots.into_iter().map(|s| s.unwrap()).collect())
    }

    /// Row `i` of the systematic generator `[I; C]`.
    fn generator_row(&self, i: usize) -> Vec<u8> {
        let mut row = vec![0u8; self.data_shards];
        if i < self.data_shards {
            row[i] = 1;
        } else {
            row.copy_from_slice(self.parity_matrix.row(i - self.data_shards));
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(x: usize, len: usize) -> Vec<Vec<u8>> {
        (0..x)
            .map(|i| (0..len).map(|j| (i * 131 + j * 7 + 3) as u8).collect())
            .collect()
    }

    #[test]
    fn encode_decode_no_loss() {
        let rs = ReedSolomon::new(8, 2);
        let data = sample_data(8, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        assert_eq!(parity.len(), 2);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        rs.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d);
        }
    }

    #[test]
    fn recovers_any_two_erasures_in_8_2() {
        let rs = ReedSolomon::new(8, 2);
        let data = sample_data(8, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for a in 0..10 {
            for b in (a + 1)..10 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().unwrap(), &full[i], "erased ({a},{b}), shard {i}");
                }
            }
        }
    }

    #[test]
    fn three_erasures_fail_in_8_2() {
        let rs = ReedSolomon::new(8, 2);
        let data = sample_data(8, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[3] = None;
        shards[9] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(CodecError::NotEnoughShards { have: 7, need: 8 })
        );
    }

    #[test]
    fn parity_only_reconstruction() {
        // Lose y data shards; recover purely from remaining data + parity.
        let rs = ReedSolomon::new(4, 4);
        let data = sample_data(4, 24);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None, None, None, None]
            .into_iter()
            .chain(parity.into_iter().map(Some))
            .collect();
        rs.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d);
        }
    }

    #[test]
    fn mismatched_shard_sizes_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let a = vec![1u8; 8];
        let b = vec![2u8; 9];
        assert_eq!(rs.encode(&[&a, &b]), Err(CodecError::ShardSizeMismatch));
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(3, 2);
        let a = vec![0u8; 4];
        assert!(matches!(
            rs.encode(&[&a]),
            Err(CodecError::WrongShardCount {
                got: 1,
                expected: 3
            })
        ));
        let mut shards: Vec<Option<Vec<u8>>> = vec![Some(a); 4];
        assert!(matches!(
            rs.reconstruct(&mut shards),
            Err(CodecError::WrongShardCount {
                got: 4,
                expected: 5
            })
        ));
    }

    #[test]
    fn overhead_matches_paper_default() {
        let rs = ReedSolomon::new(8, 2);
        assert_eq!(rs.total_shards(), 10);
        assert!((rs.overhead() - 0.25).abs() < 1e-12);
        // Parity fraction of the wire total is 20% as stated in the paper.
        let parity_frac = rs.parity_shards() as f64 / rs.total_shards() as f64;
        assert!((parity_frac - 0.20).abs() < 1e-12);
    }

    #[test]
    fn encode_into_matches_encode() {
        let rs = ReedSolomon::new(8, 2);
        let data = sample_data(8, 100);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expect = rs.encode(&refs).unwrap();
        let mut pool = ShardPool::new();
        let mut parity: Vec<Vec<u8>> = (0..2).map(|_| pool.take(100)).collect();
        rs.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity, expect);
        // And with dirty reused buffers of the wrong size.
        for p in &mut parity {
            p.clear();
            p.resize(7, 0xAA);
        }
        rs.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity, expect);
    }

    #[test]
    fn encode_into_validates_parity_slots() {
        let rs = ReedSolomon::new(3, 2);
        let data = sample_data(3, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut one = vec![Vec::new()];
        assert_eq!(
            rs.encode_into(&refs, &mut one),
            Err(CodecError::WrongShardCount {
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn reconstruct_with_matches_reconstruct_and_caches() {
        let rs = ReedSolomon::new(8, 2);
        let data = sample_data(8, 48);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        let mut scratch = CodecScratch::new();
        let mut pool = ShardPool::new();
        assert_eq!(rs.cached_inversions(), 0);
        for round in 0..3 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[1] = None;
            shards[9] = None;
            rs.reconstruct_with(&mut shards, &mut scratch, &mut pool)
                .unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.as_ref().unwrap(), &full[i], "round {round}, shard {i}");
            }
            // Recycle the recovered shards like a transport loop would.
            for s in shards.into_iter().flatten() {
                pool.put(s);
            }
        }
        // Same erasure pattern every round: exactly one cached inversion.
        assert_eq!(rs.cached_inversions(), 1);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[0] = None;
        rs.reconstruct_with(&mut shards, &mut scratch, &mut pool)
            .unwrap();
        assert_eq!(rs.cached_inversions(), 2);
    }

    #[test]
    fn clone_starts_with_cold_cache() {
        let rs = ReedSolomon::new(4, 2);
        let data = sample_data(4, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[2] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(rs.cached_inversions(), 1);
        let clone = rs.clone();
        assert_eq!(clone.cached_inversions(), 0);
    }
}
