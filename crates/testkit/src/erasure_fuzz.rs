//! Seeded differential fuzzing for the erasure codec.
//!
//! Each [`ErasureCase`] is a random `(data, parity, shard_len, erasure
//! pattern)` tuple. Running a case pushes deterministic random payload
//! through each of the codec's three calls — `encode`, `reconstruct`, and
//! `reconstruct_indexed` over a shuffled survivor set — and compares each
//! byte against the naive GF(2^8) oracle in [`crate::naive_rs`]. A
//! mismatch greedily shrinks (smaller shards, fewer erasures, narrower
//! geometry) and is written as an `erasure_<hash>.json` reproducer, the
//! same life cycle scenario fuzzing uses: fixed failures move into
//! `crates/testkit/regressions/` so they can never silently regress.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use serde_json;
use uno_erasure::ReedSolomon;

use crate::naive_rs::NaiveReedSolomon;

/// One differential fuzz case for the erasure codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErasureCase {
    /// Seed for the payload bytes and survivor shuffle.
    pub seed: u64,
    /// Data shards per block (`x`).
    pub data: usize,
    /// Parity shards per block (`y`).
    pub parity: usize,
    /// Bytes per shard.
    pub shard_len: usize,
    /// Distinct shard indices (data or parity) erased before decoding.
    /// At most `parity` of them, so the block is always recoverable.
    pub erased: Vec<usize>,
}

/// Geometry pool for generated cases: the paper's default plus the corner
/// geometries the property grid pins down, and a few in between.
const GEOMETRIES: [(usize, usize); 8] = [
    (2, 1),
    (4, 2),
    (8, 2),
    (8, 4),
    (12, 3),
    (16, 4),
    (24, 6),
    (32, 8),
];

impl ErasureCase {
    /// Deterministically generate a case from a seed. `quick` keeps shard
    /// lengths small enough that the exhaustive-search oracle stays cheap
    /// in debug builds (the naive decoder re-derives every Cauchy
    /// coefficient per byte).
    pub fn generate(seed: u64, quick: bool) -> ErasureCase {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0065_6373);
        let (data, parity) = GEOMETRIES[rng.gen_range(0..GEOMETRIES.len())];
        // Oracle cost scales with data·parity·len, so wide geometries get
        // shorter shards; odd lengths are deliberately common.
        let max_len = match (quick, data) {
            (true, d) if d >= 16 => 96,
            (true, _) => 256,
            (false, d) if d >= 16 => 256,
            (false, _) => 2048,
        };
        let shard_len = rng.gen_range(1..=max_len);
        let n = data + parity;
        let lost = rng.gen_range(1..=parity);
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let mut erased: Vec<usize> = indices.into_iter().take(lost).collect();
        erased.sort_unstable();
        ErasureCase {
            seed,
            data,
            parity,
            shard_len,
            erased,
        }
    }

    /// Structural validity: sane geometry, in-range distinct erasures, no
    /// more erasures than parity can absorb.
    pub fn is_valid(&self) -> bool {
        let n = self.data + self.parity;
        self.data >= 1
            && self.parity >= 1
            && n <= 256
            && self.shard_len >= 1
            && !self.erased.is_empty()
            && self.erased.len() <= self.parity
            && self.erased.windows(2).all(|w| w[0] < w[1])
            && self.erased.iter().all(|&e| e < n)
    }

    // -- JSON encoding (same hand-rolled Value idiom as `Scenario`) --------

    /// Encode as a JSON value tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), Value::Str("erasure_case".to_string())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("data".to_string(), Value::U64(self.data as u64)),
            ("parity".to_string(), Value::U64(self.parity as u64)),
            ("shard_len".to_string(), Value::U64(self.shard_len as u64)),
            (
                "erased".to_string(),
                Value::Array(self.erased.iter().map(|&e| Value::U64(e as u64)).collect()),
            ),
        ])
    }

    /// Canonical single-line JSON (hashing, logging).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("erasure case serialization")
    }

    /// Pretty JSON for repro/regression files.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("erasure case serialization")
    }

    /// Decode from a JSON value tree.
    pub fn from_value(v: &Value) -> Result<ErasureCase, String> {
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("erasure_case") => {}
            other => return Err(format!("not an erasure case (kind: {other:?})")),
        }
        let erased = v
            .get("erased")
            .and_then(|x| x.as_array())
            .ok_or("missing array field `erased`")?
            .iter()
            .map(|e| {
                e.as_f64()
                    .filter(|f| *f >= 0.0 && f.fract() == 0.0)
                    .map(|f| f as usize)
                    .ok_or_else(|| "non-integer erased index".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let case = ErasureCase {
            seed: field(v, "seed")?,
            data: field(v, "data")? as usize,
            parity: field(v, "parity")? as usize,
            shard_len: field(v, "shard_len")? as usize,
            erased,
        };
        if !case.is_valid() {
            return Err(format!("structurally invalid erasure case: {case:?}"));
        }
        Ok(case)
    }

    /// Decode from JSON text.
    pub fn from_json(s: &str) -> Result<ErasureCase, String> {
        let v = serde_json::parse_value(s).map_err(|e| e.to_string())?;
        ErasureCase::from_value(&v)
    }
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    let f = v
        .get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    if f < 0.0 || f.fract() != 0.0 {
        return Err(format!("field `{key}` is not a non-negative integer: {f}"));
    }
    Ok(f as u64)
}

/// Deterministic payload for a case: every byte a function of the seed.
fn payload(case: &ErasureCase) -> Vec<Vec<u8>> {
    let mut rng =
        SmallRng::seed_from_u64(case.seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x7061_796C);
    (0..case.data)
        .map(|_| (0..case.shard_len).map(|_| rng.gen()).collect())
        .collect()
}

/// Run one case through every codec call against the naive oracle.
/// Returns `None` when every byte agrees, or a description of the first
/// divergence found.
pub fn run_erasure_case(case: &ErasureCase) -> Option<String> {
    if !case.is_valid() {
        return Some(format!("structurally invalid case: {case:?}"));
    }
    let fast = ReedSolomon::new(case.data, case.parity);
    let naive = NaiveReedSolomon::new(case.data, case.parity);
    let shards = payload(case);
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();

    // 1. Encode vs the oracle.
    let parity_fast = match fast.encode(&refs) {
        Ok(p) => p,
        Err(e) => return Some(format!("encode refused a valid block: {e}")),
    };
    let parity_naive = naive.encode(&shards);
    if parity_fast != parity_naive {
        return Some("encode: parity differs from naive oracle".to_string());
    }

    let all: Vec<Vec<u8>> = shards.iter().cloned().chain(parity_fast).collect();

    // 2. reconstruct on the Option slots.
    let mut rx: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
    for &e in &case.erased {
        rx[e] = None;
    }
    if let Err(e) = fast.reconstruct(&mut rx) {
        return Some(format!("reconstruct refused a recoverable block: {e}"));
    }
    for (i, slot) in rx.iter().enumerate() {
        if slot.as_ref() != Some(&all[i]) {
            return Some(format!("reconstruct: shard {i} differs from ground truth"));
        }
    }

    // 3. reconstruct_indexed over a shuffled survivor set, cross-checked
    //    against the oracle's own Gauss–Jordan recovery.
    let mut rng =
        SmallRng::seed_from_u64(case.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x0069_6478);
    let mut survivors: Vec<(usize, Vec<u8>)> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| !case.erased.contains(i))
        .map(|(i, s)| (i, s.clone()))
        .collect();
    survivors.shuffle(&mut rng);
    let indexed = match fast.reconstruct_indexed(&survivors) {
        Ok(s) => s,
        Err(e) => return Some(format!("reconstruct_indexed refused survivors: {e}")),
    };
    if indexed != all {
        return Some("reconstruct_indexed differs from ground truth".to_string());
    }
    let oracle = match naive.recover(&survivors) {
        Some(s) => s,
        None => return Some("naive oracle refused a valid survivor set".to_string()),
    };
    if oracle != all {
        return Some("naive oracle recovery differs from ground truth".to_string());
    }

    None
}

/// Candidate one-step simplifications of a failing case, most aggressive
/// first. Invalid candidates (erasures out of range after narrowing the
/// geometry, more losses than parity) are filtered out.
fn candidates(case: &ErasureCase) -> Vec<ErasureCase> {
    let mut out = Vec::new();
    if case.data > 2 {
        let mut c = case.clone();
        c.data = (case.data / 2).max(2);
        c.parity = case.parity.min(c.data);
        let n = c.data + c.parity;
        c.erased.retain(|&e| e < n);
        c.erased.truncate(c.parity);
        out.push(c);
    }
    if case.parity > 1 {
        let mut c = case.clone();
        c.parity -= 1;
        let n = c.data + c.parity;
        c.erased.retain(|&e| e < n);
        c.erased.truncate(c.parity);
        out.push(c);
    }
    if case.erased.len() > 1 {
        for j in 0..case.erased.len() {
            let mut c = case.clone();
            c.erased.remove(j);
            out.push(c);
        }
    }
    if case.shard_len > 1 {
        for div in [16usize, 2] {
            if case.shard_len / div >= 1 && case.shard_len / div != case.shard_len {
                let mut c = case.clone();
                c.shard_len /= div;
                out.push(c);
            }
        }
    }
    out.retain(ErasureCase::is_valid);
    out
}

/// Result of shrinking a failing erasure case.
#[derive(Clone, Debug)]
pub struct ErasureShrinkResult {
    /// The minimal still-failing case.
    pub case: ErasureCase,
    /// Case executions spent.
    pub runs: usize,
    /// Accepted simplification steps.
    pub steps: usize,
}

/// Greedily shrink a failing case, spending at most `budget` extra case
/// executions. The input must fail; the output still fails.
pub fn shrink_erasure_case(case: &ErasureCase, budget: usize) -> ErasureShrinkResult {
    debug_assert!(
        run_erasure_case(case).is_some(),
        "shrink needs a failing input"
    );
    let mut cur = case.clone();
    let mut runs = 0usize;
    let mut steps = 0usize;
    'outer: loop {
        for cand in candidates(&cur) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            if run_erasure_case(&cand).is_some() {
                cur = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ErasureShrinkResult {
        case: cur,
        runs,
        steps,
    }
}

/// FNV-1a hash of the case's canonical JSON, as 16 hex digits.
pub fn erasure_case_hash(case: &ErasureCase) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in case.to_json().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Write the case to `<dir>/erasure_<hash>.json` and return the path. The
/// `erasure_` prefix is what the regression-corpus test dispatches on.
pub fn write_erasure_repro(case: &ErasureCase, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("erasure_{}.json", erasure_case_hash(case)));
    std::fs::write(&path, case.to_json_pretty() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_valid_and_deterministic() {
        for seed in 0..64 {
            let a = ErasureCase::generate(seed, true);
            assert!(a.is_valid(), "seed {seed} generated invalid case {a:?}");
            assert_eq!(a, ErasureCase::generate(seed, true));
        }
    }

    #[test]
    fn json_round_trips() {
        for seed in [0u64, 7, 1234] {
            let case = ErasureCase::generate(seed, true);
            let back = ErasureCase::from_json(&case.to_json_pretty()).unwrap();
            assert_eq!(case, back);
        }
    }

    #[test]
    fn scenario_json_is_rejected() {
        let sc = crate::Scenario::generate(3, true);
        assert!(ErasureCase::from_json(&sc.to_json()).is_err());
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = ErasureCase::generate(11, true);
        assert_eq!(erasure_case_hash(&a), erasure_case_hash(&a.clone()));
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(erasure_case_hash(&a), erasure_case_hash(&b));
    }

    #[test]
    fn quick_cases_run_clean() {
        for seed in 0..8 {
            let case = ErasureCase::generate(seed, true);
            assert_eq!(run_erasure_case(&case), None, "case {case:?}");
        }
    }

    #[test]
    fn candidates_only_simplify_and_stay_valid() {
        let case = ErasureCase::generate(42, true);
        for c in candidates(&case) {
            assert!(c.is_valid(), "candidate invalid: {c:?}");
            let smaller = c.data < case.data
                || c.parity < case.parity
                || c.shard_len < case.shard_len
                || c.erased.len() < case.erased.len();
            assert!(smaller, "candidate did not simplify: {c:?}");
        }
    }
}
