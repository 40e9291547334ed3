//! `fpz`: a lossless fpzip-like predictive floating-point codec.
//!
//! Pipeline per sample (Lindstrom & Isenburg 2006 family):
//!
//! 1. map the IEEE-754 bits to an **order-preserving unsigned integer** so
//!    arithmetic on residuals behaves monotonically;
//! 2. predict each sample with the **3D Lorenzo predictor** (the
//!    inclusion–exclusion sum of the 7 previously-seen corner neighbors);
//! 3. zig-zag the signed residual and store it as a significant-bit-count
//!    (itself delta-coded against the previous sample's count with a
//!    unary zig-zag code — counts are locally stable) followed by the
//!    residual's payload bits.
//!
//! Smooth regions predict well ⇒ tiny residuals ⇒ few payload bits; noisy
//! storm cores predict poorly ⇒ ~32-bit residuals. The compressed size is
//! therefore a direct information measure, which is exactly how the paper's
//! FPZIP metric uses it.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, FloatCodec, Shape};

/// Order-preserving map from IEEE-754 `f32` bits to `u32`.
#[inline]
fn float_to_ordered(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`float_to_ordered`].
#[inline]
fn ordered_to_float(m: u32) -> f32 {
    let bits = if m & 0x8000_0000 != 0 {
        m & 0x7FFF_FFFF
    } else {
        !m
    };
    f32::from_bits(bits)
}

/// Zig-zag encode a signed (wrapping) residual to an unsigned magnitude.
#[inline]
fn zigzag(r: i32) -> u32 {
    ((r << 1) ^ (r >> 31)) as u32
}

#[inline]
fn unzigzag(m: u32) -> i32 {
    ((m >> 1) as i32) ^ -((m & 1) as i32)
}

/// 3D Lorenzo prediction for a sample on the low boundary (`i`, `j` or
/// `k` is 0): neighbours outside the array count as zero.
fn edge_predict(data: &[u32], (nx, ny): (usize, usize), i: usize, j: usize, k: usize) -> u32 {
    let at = |di: usize, dj: usize, dk: usize| {
        if i < di || j < dj || k < dk {
            return 0;
        }
        data[i - di + nx * (j - dj + ny * (k - dk))]
    };
    at(1, 0, 0)
        .wrapping_add(at(0, 1, 0))
        .wrapping_add(at(0, 0, 1))
        .wrapping_sub(at(1, 1, 0))
        .wrapping_sub(at(1, 0, 1))
        .wrapping_sub(at(0, 1, 1))
        .wrapping_add(at(1, 1, 1))
}

/// Visit the field in x-fastest order with each sample's Lorenzo prediction
/// (the inclusion–exclusion sum of its 7 causal corner neighbours);
/// `step(prediction, stored)` returns the value to store. Interior rows
/// (`j, k > 0`) read their causal rows as slices: fixed offsets, no branch.
fn lorenzo_scan<E>(
    data: &mut [u32],
    (nx, ny, nz): Shape,
    mut step: impl FnMut(u32, u32) -> Result<u32, E>,
) -> Result<(), E> {
    if data.is_empty() {
        return Ok(());
    }
    let (sy, sz) = (nx, nx * ny);
    for k in 0..nz {
        for j in 0..ny {
            let row = nx * (j + ny * k);
            if j == 0 || k == 0 {
                for i in 0..nx {
                    let pred = edge_predict(data, (nx, ny), i, j, k);
                    data[row + i] = step(pred, data[row + i])?;
                }
                continue;
            }
            let (done, rest) = data.split_at_mut(row);
            let cur = &mut rest[..nx];
            let y = &done[row - sy..][..nx];
            let z = &done[row - sz..][..nx];
            let yz = &done[row - sy - sz..][..nx];
            let mut left = step(y[0].wrapping_add(z[0]).wrapping_sub(yz[0]), cur[0])?;
            cur[0] = left;
            for i in 1..nx {
                let pred = left
                    .wrapping_add(y[i])
                    .wrapping_sub(y[i - 1])
                    .wrapping_add(z[i])
                    .wrapping_sub(z[i - 1])
                    .wrapping_sub(yz[i])
                    .wrapping_add(yz[i - 1]);
                left = step(pred, cur[i])?;
                cur[i] = left;
            }
        }
    }
    Ok(())
}

/// The fpzip-like codec. Stateless; the default instance is what the FPZIP
/// scoring metric uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpz;

impl FloatCodec for Fpz {
    fn name(&self) -> &'static str {
        "FPZIP"
    }

    fn encode(&self, data: &[f32], shape: Shape) -> Vec<u8> {
        let (nx, ny, nz) = shape;
        assert_eq!(data.len(), nx * ny * nz, "shape/data mismatch");
        let mut ordered: Vec<u32> = data.iter().map(|&v| float_to_ordered(v)).collect();
        let mut w = BitWriter::new();
        let mut prev_nbits = 0i32;
        let Ok(()) = lorenzo_scan(&mut ordered, shape, |pred, value| {
            let m = zigzag(value.wrapping_sub(pred) as i32);
            let nbits = (32 - m.leading_zeros()) as i32;
            // Counts are locally stable: delta-code them in unary.
            w.write_unary(zigzag(nbits - prev_nbits));
            prev_nbits = nbits;
            if nbits > 1 {
                // The MSB of an nbits-wide value is always 1; skip it.
                w.write_bits((m & !(1 << (nbits - 1))) as u64, nbits as u32 - 1);
            }
            Ok::<_, std::convert::Infallible>(value)
        });
        w.into_bytes()
    }

    fn decode(&self, stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let (nx, ny, nz) = shape;
        // Every sample costs at least its unary terminator bit: refuse a
        // shape the stream cannot cover before allocating for it.
        let n = nx
            .checked_mul(ny)
            .and_then(|n| n.checked_mul(nz))
            .filter(|&n| n <= stream.len().saturating_mul(8))
            .ok_or(CodecError::Corrupt("stream holds fewer bits than samples"))?;
        let mut r = BitReader::new(stream);
        let mut ordered = vec![0u32; n];
        let mut prev_nbits = 0i32;
        lorenzo_scan(&mut ordered, shape, |pred, _| {
            let nbits = prev_nbits.saturating_add(unzigzag(r.read_unary()?));
            if !(0..=32).contains(&nbits) {
                return Err(CodecError::Corrupt("residual width out of range"));
            }
            prev_nbits = nbits;
            let m = match nbits {
                0 => 0u32,
                1 => 1u32,
                _ => (r.read_bits(nbits as u32 - 1)? as u32) | (1 << (nbits - 1)),
            };
            Ok(pred.wrapping_add(unzigzag(m) as u32))
        })?;
        Ok(ordered.into_iter().map(ordered_to_float).collect())
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], shape: Shape) {
        let codec = Fpz;
        let enc = codec.encode(data, shape);
        let dec = codec.decode(&enc, shape).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless roundtrip violated");
        }
    }

    #[test]
    fn ordered_map_preserves_order() {
        let vals = [-1e30f32, -5.0, -1.0, -0.0, 0.0, 1e-20, 1.0, 5.0, 1e30];
        for w in vals.windows(2) {
            assert!(
                float_to_ordered(w[0]) <= float_to_ordered(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for v in vals {
            assert_eq!(ordered_to_float(float_to_ordered(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for r in [-5i32, -1, 0, 1, 7, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(r)), r);
        }
    }

    #[test]
    fn roundtrip_smooth() {
        let (nx, ny, nz) = (8, 7, 5);
        let data: Vec<f32> = (0..nx * ny * nz)
            .map(|idx| {
                let i = idx % nx;
                let j = (idx / nx) % ny;
                let k = idx / (nx * ny);
                (i as f32 * 0.3 + j as f32 * 0.1 - k as f32 * 0.2).sin()
            })
            .collect();
        roundtrip(&data, (nx, ny, nz));
    }

    #[test]
    fn roundtrip_constants_and_specials() {
        roundtrip(&[0.0; 27], (3, 3, 3));
        roundtrip(&[-42.5; 27], (3, 3, 3));
        let mut data = vec![1.0f32; 27];
        data[13] = f32::MAX;
        data[5] = f32::MIN_POSITIVE;
        data[20] = -0.0;
        roundtrip(&data, (3, 3, 3));
    }

    #[test]
    fn roundtrip_single_point_and_planes() {
        roundtrip(&[3.25], (1, 1, 1));
        let plane: Vec<f32> = (0..30).map(|i| i as f32 * 0.5).collect();
        roundtrip(&plane, (6, 5, 1));
        roundtrip(&plane, (1, 6, 5));
    }

    #[test]
    fn smooth_beats_noise() {
        let shape = (8, 8, 8);
        let smooth: Vec<f32> = (0..512).map(|i| (i as f32 * 0.01).sin()).collect();
        let noise: Vec<f32> = (0..512)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract() * 100.0)
            .collect();
        let c = Fpz;
        assert!(c.encode(&smooth, shape).len() < c.encode(&noise, shape).len());
    }

    #[test]
    fn constant_block_compresses_hard() {
        let shape = (8, 8, 8);
        let data = vec![7.5f32; 512];
        let ratio = Fpz.compressed_ratio(&data, shape);
        assert!(
            ratio < 0.1,
            "constant block ratio should be tiny, got {ratio}"
        );
    }

    #[test]
    fn shape_beyond_the_stream_is_refused() {
        let enc = Fpz.encode(&[1.0; 8], (2, 2, 2));
        for shape in [(16384, 16384, 1), (usize::MAX, 2, 1)] {
            assert_eq!(
                Fpz.decode(&enc, shape),
                Err(CodecError::Corrupt("stream holds fewer bits than samples"))
            );
        }
    }

    #[test]
    fn truncated_stream_is_error() {
        let shape = (4, 4, 4);
        let data: Vec<f32> = (0..64)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract())
            .collect();
        let enc = Fpz.encode(&data, shape);
        assert!(Fpz.decode(&enc[..enc.len() / 2], shape).is_err());
    }
}
