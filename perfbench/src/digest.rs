//! Output digests: a 64-bit FNV-1a hash over the `Debug` image of a
//! workload's virtual outputs (reports, frames, request logs with their
//! fidelity tags). `Debug` prints every `f64` in its shortest exact form,
//! so two digests agree only if every virtual figure is bit-identical.

use std::fmt::Debug;

/// Digests expected for the default seed and one held-out seed, as
/// `<workload> <scale> <seed> <hex digest>` lines.
const EXPECTED: &str = include_str!("../expected_digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold the `Debug` image of `value` into the digest.
    pub fn add(&mut self, value: &impl Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so [a, bc] and [ab, c] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The recorded digest for `(workload, scale, seed)`, if one is kept.
pub fn expected(workload: &str, scale: &str, seed: u64) -> Option<String> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, n, hex] if *w == workload && *s == scale && n.parse() == Ok(seed) => {
                    Some((*hex).to_owned())
                }
                _ => None,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_and_sees_every_bit() {
        let mut a = Digest::default();
        a.add(&"a");
        a.add(&"bc");
        let mut b = Digest::default();
        b.add(&"ab");
        b.add(&"c");
        assert_ne!(a, b);
        let mut x = Digest::default();
        x.add(&0.1f64);
        let mut y = Digest::default();
        y.add(&f64::from_bits(0.1f64.to_bits() + 1));
        assert_ne!(x, y);
    }
}
