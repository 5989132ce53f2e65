//! A deliberately naive GF(2^8) Reed–Solomon reference implementation.
//!
//! This module shares **no code** with `uno-erasure`: multiplication is
//! Russian-peasant carryless reduction (no tables), inversion is exhaustive
//! search, and decoding is textbook Gauss–Jordan over the Cauchy generator.
//! It is O(n·k) per byte and exists purely as a differential oracle — if the
//! split-table codec and this one ever disagree on a single byte, one of them
//! is wrong.

/// The field polynomial `x^8 + x^4 + x^3 + x^2 + 1`, same field as the
/// production codec (a different modulus would make the oracle vacuous).
const POLY: u16 = 0x11D;

/// Carryless multiply-and-reduce, one bit at a time.
fn gmul(a: u8, b: u8) -> u8 {
    let mut acc: u16 = 0;
    let mut a = a as u16;
    let mut b = b as u16;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    acc as u8
}

/// Multiplicative inverse by exhaustive search (the oracle may be slow).
fn ginv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(2^8)");
    (1..=255u8)
        .find(|&c| gmul(a, c) == 1)
        .expect("every nonzero element has an inverse")
}

/// Naive systematic Reed–Solomon over the Cauchy generator used by UnoRC.
#[derive(Clone, Copy, Debug)]
pub struct NaiveReedSolomon {
    x: usize,
    y: usize,
}

impl NaiveReedSolomon {
    /// A `(x, y)` code: `x` data shards, `y` parity shards.
    pub fn new(x: usize, y: usize) -> Self {
        assert!(x >= 1 && y >= 1 && x + y <= 256, "invalid geometry");
        NaiveReedSolomon { x, y }
    }

    /// Cauchy parity coefficient for parity row `r`, data column `j`:
    /// `1 / ((x + r) ^ j)` with shard identities as field elements.
    fn coeff(&self, r: usize, j: usize) -> u8 {
        ginv(((self.x + r) as u8) ^ (j as u8))
    }

    /// Encode parity the slow way: for each parity shard, a full dot
    /// product across every data shard, byte by byte.
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.x);
        let len = data[0].len();
        assert!(data.iter().all(|d| d.len() == len), "ragged shards");
        (0..self.y)
            .map(|r| {
                (0..len)
                    .map(|k| {
                        (0..self.x).fold(0u8, |acc, j| acc ^ gmul(self.coeff(r, j), data[j][k]))
                    })
                    .collect()
            })
            .collect()
    }

    /// Row of the full generator matrix for shard identity `i`
    /// (identity rows for data shards, Cauchy rows for parity shards).
    fn generator_row(&self, i: usize) -> Vec<u8> {
        let mut row = vec![0u8; self.x];
        if i < self.x {
            row[i] = 1;
        } else {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.coeff(i - self.x, j);
            }
        }
        row
    }

    /// Recover **all** `x + y` shards from any `x` distinct survivors via
    /// Gauss–Jordan elimination. Returns `None` when fewer than `x` shards
    /// are supplied or an index is out of range / duplicated.
    pub fn recover(&self, survivors: &[(usize, Vec<u8>)]) -> Option<Vec<Vec<u8>>> {
        let n = self.x + self.y;
        let mut seen = vec![false; n];
        let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // (coeff row, bytes)
        for (i, bytes) in survivors {
            if *i >= n || seen[*i] {
                return None;
            }
            seen[*i] = true;
            if rows.len() < self.x {
                rows.push((self.generator_row(*i), bytes.clone()));
            }
        }
        if rows.len() < self.x {
            return None;
        }
        let len = rows[0].1.len();
        if rows.iter().any(|(_, b)| b.len() != len) {
            return None;
        }

        // Gauss–Jordan on the x*x system, applying every row operation to
        // the attached shard bytes as the augmented part.
        for col in 0..self.x {
            let pivot = (col..self.x).find(|&r| rows[r].0[col] != 0)?;
            rows.swap(col, pivot);
            let inv = ginv(rows[col].0[col]);
            for v in rows[col].0.iter_mut() {
                *v = gmul(*v, inv);
            }
            for k in 0..len {
                rows[col].1[k] = gmul(rows[col].1[k], inv);
            }
            for r in 0..self.x {
                if r == col || rows[r].0[col] == 0 {
                    continue;
                }
                let f = rows[r].0[col];
                let (pivot_row, pivot_bytes) = (rows[col].0.clone(), rows[col].1.clone());
                for (v, pv) in rows[r].0.iter_mut().zip(&pivot_row) {
                    *v ^= gmul(f, *pv);
                }
                for (b, pb) in rows[r].1.iter_mut().zip(&pivot_bytes) {
                    *b ^= gmul(f, *pb);
                }
            }
        }
        let data: Vec<Vec<u8>> = rows.into_iter().map(|(_, b)| b).collect();
        let parity = self.encode(&data);
        Some(data.into_iter().chain(parity).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_basics() {
        assert_eq!(gmul(1, 57), 57);
        assert_eq!(gmul(0, 91), 0);
        for a in 1..=255u8 {
            assert_eq!(gmul(a, ginv(a)), 1, "a={a}");
        }
        // Commutativity spot check.
        assert_eq!(gmul(0x53, 0xCA), gmul(0xCA, 0x53));
    }

    #[test]
    fn round_trip_from_any_survivor_set() {
        let rs = NaiveReedSolomon::new(4, 2);
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..16).map(|j| (i * 31 + j * 7 + 3) as u8).collect())
            .collect();
        let parity = rs.encode(&data);
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity.clone()).collect();
        // Drop shards 1 and 4; recover from the remaining four.
        let survivors: Vec<(usize, Vec<u8>)> = [0usize, 2, 3, 5]
            .iter()
            .map(|&i| (i, all[i].clone()))
            .collect();
        let rec = rs.recover(&survivors).unwrap();
        assert_eq!(rec, all);
    }

    #[test]
    fn too_few_or_bad_indices_return_none() {
        let rs = NaiveReedSolomon::new(3, 2);
        assert!(rs.recover(&[(0, vec![1, 2])]).is_none());
        assert!(rs
            .recover(&[(0, vec![1]), (0, vec![1]), (1, vec![1])])
            .is_none());
        assert!(rs
            .recover(&[(0, vec![1]), (1, vec![1]), (9, vec![1])])
            .is_none());
    }
}
