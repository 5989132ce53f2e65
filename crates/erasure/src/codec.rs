//! Systematic Reed–Solomon erasure codec.
//!
//! UnoRC (paper §4.2) divides each inter-DC message into *blocks* of
//! `n = x + y` packets — `x` data packets plus `y` parity packets computed
//! with an MDS code — so a block is recoverable from *any* `x` of its `n`
//! packets. The simulator models that by counting distinct arrivals per
//! block and never runs this codec; the codec's one job is to check the
//! counting rule on real bytes (`receiver_block_done_matches_rs_decoder` in
//! `uno-transport`), with its own bytes pinned to a naive oracle in
//! `uno-testkit`. So there is one call per operation —
//! [`ReedSolomon::encode`], [`ReedSolomon::reconstruct`] and
//! [`ReedSolomon::reconstruct_indexed`] — each allocating fresh `Vec`s and
//! inverting its decoding matrix anew.

use crate::gf256 as gf;
use crate::matrix::Matrix;

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

/// A systematic `(x, y)` Reed–Solomon code: `x` data shards, `y` parity
/// shards, tolerating any `y` erasures. The paper's default is `(8, 2)`
/// (20 % overhead).
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// The `y × x` Cauchy parity matrix.
    parity_matrix: Matrix,
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

    /// Compute parity shards for `data` (all shards must be equal length).
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodecError> {
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
        let mut parity = vec![vec![0u8; len]; self.parity_shards];
        for (i, out) in parity.iter_mut().enumerate() {
            for (j, shard) in data.iter().enumerate() {
                // The first row term overwrites; the rest XOR-accumulate.
                if j == 0 {
                    gf::mul_slice(out, shard, self.parity_matrix[(i, 0)]);
                } else {
                    gf::mul_acc(out, shard, self.parity_matrix[(i, j)]);
                }
            }
        }
        Ok(parity)
    }

    /// Reconstruct missing shards in place.
    ///
    /// `shards` has `x + y` slots ordered data-then-parity; `None` marks an
    /// erasure. On success every slot is `Some` and the first `x` slots hold
    /// the original data.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        let x = self.data_shards;
        let n = self.total_shards();
        if shards.len() != n {
            return Err(CodecError::WrongShardCount {
                got: shards.len(),
                expected: n,
            });
        }
        let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < x {
            return Err(CodecError::NotEnoughShards {
                have: present.len(),
                need: x,
            });
        }
        if present.len() == n {
            return Ok(()); // nothing missing
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(CodecError::ShardSizeMismatch);
        }

        // Decode from the first x present shards: invert the generator rows
        // they were encoded with.
        let used = &present[..x];
        let rows: Vec<Vec<u8>> = used.iter().map(|&i| self.generator_row(i)).collect();
        let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let inv = Matrix::from_rows(&row_refs)
            .inverse()
            .expect("Cauchy generator submatrices are always invertible");

        // data[j] = sum_k inv[j][k] * received[k]. Missing slots are filled
        // as they are computed; `used` only names originally-present
        // shards, so later recoveries never read a just-filled slot.
        for j in 0..x {
            if shards[j].is_some() {
                continue; // data shard already present
            }
            let mut out = vec![0u8; len];
            for (k, &pi) in used.iter().enumerate() {
                gf::mul_acc(&mut out, shards[pi].as_ref().unwrap(), inv[(j, k)]);
            }
            shards[j] = Some(out);
        }

        // Re-encode any missing parity from the (now complete) data.
        if shards[x..].iter().any(Option::is_none) {
            let data: Vec<&[u8]> = shards[..x].iter().map(|s| s.as_deref().unwrap()).collect();
            let parity = self.encode(&data)?;
            for (slot, p) in shards[x..].iter_mut().zip(parity) {
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
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
}
