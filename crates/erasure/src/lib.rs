//! # uno-erasure — MDS erasure coding for UnoRC
//!
//! A from-scratch systematic Reed–Solomon codec over GF(2^8), built for the
//! UnoRC reliable-connectivity layer of the Uno reproduction (paper §3.3 and
//! §4.2): each inter-DC message is divided into blocks of `x` data packets
//! plus `y` MDS parity packets, so a block survives any `y` packet losses
//! without retransmission.
//!
//! The network simulator imports only [`EcParams`]: it counts distinct
//! arrivals per block and never runs the codec. The codec is one scalar
//! implementation on real bytes whose job is to check that counting rule;
//! it is property-tested against random erasure patterns and pinned byte
//! for byte to a naive oracle.
//!
//! ```
//! use uno_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(8, 2); // the paper's default block geometry
//! let shards: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 16]).collect();
//! let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
//! let parity = rs.encode(&refs).unwrap();
//!
//! // Lose any two of the ten packets...
//! let mut rx: Vec<Option<Vec<u8>>> =
//!     shards.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
//! rx[1] = None;
//! rx[9] = None;
//! // ...and recover the block.
//! rs.reconstruct(&mut rx).unwrap();
//! assert_eq!(rx[1].as_ref().unwrap(), &shards[1]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod gf256;
pub mod matrix;

pub use codec::{CodecError, ReedSolomon};
pub use matrix::Matrix;

/// Block geometry parameters `(x, y)` shared with the simulator layers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EcParams {
    /// Data packets per block.
    pub data: u8,
    /// Parity packets per block.
    pub parity: u8,
}

impl EcParams {
    /// The paper's default (8, 2) scheme.
    pub const PAPER_DEFAULT: EcParams = EcParams { data: 8, parity: 2 };

    /// Total packets per block (`n = x + y`).
    pub fn total(&self) -> u8 {
        self.data + self.parity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_params_totals() {
        assert_eq!(EcParams::PAPER_DEFAULT.total(), 10);
        assert_eq!(EcParams { data: 4, parity: 4 }.total(), 8);
    }
}
