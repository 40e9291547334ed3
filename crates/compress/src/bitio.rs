//! Bit-granular I/O over byte buffers, shared by the codecs. Both ends
//! work a word at a time; the layout (LSB-first, final byte zero-padded)
//! does not depend on the word size.

use crate::CodecError;

/// Append-only bit writer (LSB-first within each byte).
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet flushed to `buf`; those above `pending` are zero.
    acc: u64,
    /// Number of bits in `acc`, below 32 between calls.
    pending: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.pending as usize
    }

    /// Append the low `n ≤ 32` bits of `value`; flush 32 bits once full.
    #[inline]
    fn push(&mut self, value: u64, n: u32) {
        self.acc |= (value & ((1 << n) - 1)) << self.pending;
        self.pending += n;
        if self.pending >= 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.pending -= 32;
        }
    }

    /// Write the low `n` bits of `value` (n ≤ 64), LSB first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n > 32 {
            self.push(value, 32);
            self.push(value >> 32, n - 32);
        } else {
            self.push(value, n);
        }
    }

    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.push(bit as u64, 1);
    }

    /// Unary code: `value` zero bits then a one bit.
    #[inline]
    pub fn write_unary(&mut self, mut value: u32) {
        while value >= 32 {
            self.push(0, 32);
            value -= 32;
        }
        self.push(1 << value, value + 1);
    }

    /// Finish and return the byte buffer (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.buf
    }
}

/// Bit reader matching [`BitWriter`]'s layout.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bits remaining (counting zero padding in the final byte).
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// The next 64 − `pos % 8` ≥ 57 bits at `pos`, LSB first; bytes past
    /// the end of the buffer read as zero.
    #[inline]
    fn window(&self) -> u64 {
        let tail = &self.buf[self.pos / 8..];
        let word = match tail.first_chunk::<8>() {
            Some(bytes) => *bytes,
            None => {
                let mut bytes = [0u8; 8];
                bytes[..tail.len()].copy_from_slice(tail);
                bytes
            }
        };
        u64::from_le_bytes(word) >> (self.pos % 8)
    }

    /// Read `n ≤ 56` bits; the caller has checked that they remain.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        let bits = self.window() & ((1u64 << n) - 1);
        self.pos += n as usize;
        bits
    }

    /// Read `n` bits (n ≤ 64), LSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if self.remaining() < n as usize {
            return Err(CodecError::Corrupt("bitstream underrun"));
        }
        if n > 56 {
            let lo = self.take(32);
            return Ok(lo | self.take(n - 32) << 32);
        }
        Ok(self.take(n))
    }

    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Read a unary code written by [`BitWriter::write_unary`].
    #[inline]
    pub fn read_unary(&mut self) -> Result<u32, CodecError> {
        let mut count = 0u32;
        loop {
            let valid = self.remaining().min(64 - self.pos % 8) as u32;
            let zeros = self.window().trailing_zeros();
            if zeros < valid {
                self.pos += zeros as usize + 1;
                return Ok(count.saturating_add(zeros));
            }
            if valid == 0 {
                return Err(CodecError::Corrupt("bitstream underrun"));
            }
            self.pos += valid as usize;
            count = count.saturating_add(valid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_par::SplitMix64;

    /// The layout spelled out one bit at a time: LSB-first bytes, final
    /// partial byte zero-padded.
    fn reference_bytes(bits: &[bool]) -> Vec<u8> {
        let mut out = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            out[i / 8] |= (b as u8) << (i % 8);
        }
        out
    }

    fn push_bits(bits: &mut Vec<bool>, value: u64, n: u32) {
        bits.extend((0..n).map(|i| value >> i & 1 != 0));
    }

    fn push_unary(bits: &mut Vec<bool>, value: u32) {
        bits.extend(std::iter::repeat_n(false, value as usize));
        bits.push(true);
    }

    #[test]
    fn long_unary_runs_at_every_offset() {
        for lead in 0..8u32 {
            for v in [55u32, 56, 57, 63, 64, 65, 120, 128, 200] {
                let mut w = BitWriter::new();
                let mut bits = Vec::new();
                w.write_bits(0b1011_0101, lead);
                push_bits(&mut bits, 0b1011_0101, lead);
                w.write_unary(v);
                push_unary(&mut bits, v);
                w.write_unary(3);
                push_unary(&mut bits, 3);
                assert_eq!(w.bit_len(), bits.len());
                let bytes = w.into_bytes();
                assert_eq!(bytes, reference_bytes(&bits), "lead {lead} unary {v}");
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bits(lead).unwrap(), 0b1011_0101 & ((1 << lead) - 1));
                assert_eq!(r.read_unary().unwrap(), v, "lead {lead}");
                assert_eq!(r.read_unary().unwrap(), 3);
            }
        }
    }

    #[test]
    fn unterminated_unary_run_is_underrun() {
        for len in [0usize, 1, 7, 8, 9, 16] {
            let zeros = vec![0u8; len];
            assert_eq!(
                BitReader::new(&zeros).read_unary(),
                Err(CodecError::Corrupt("bitstream underrun")),
                "{len} zero bytes"
            );
        }
    }

    #[test]
    fn wide_writes_at_every_bit_offset() {
        let pattern = 0xF00D_CAFE_8BAD_BEEFu64;
        for off in 0..8u32 {
            for n in [33u32, 56, 57, 63, 64] {
                let mut w = BitWriter::new();
                let mut bits = Vec::new();
                w.write_bits(u64::MAX, off);
                push_bits(&mut bits, u64::MAX, off);
                w.write_bits(pattern, n);
                push_bits(&mut bits, pattern, n);
                let bytes = w.into_bytes();
                assert_eq!(bytes, reference_bytes(&bits), "offset {off} width {n}");
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bits(off).unwrap(), (1u64 << off) - 1);
                let want = if n == 64 {
                    pattern
                } else {
                    pattern & ((1 << n) - 1)
                };
                assert_eq!(r.read_bits(n).unwrap(), want, "offset {off} width {n}");
            }
        }
    }

    #[test]
    fn reads_end_exactly_on_the_last_padded_bit() {
        // 13 written bits pad to 16: all 16 read, the 17th underruns.
        let mut w = BitWriter::new();
        w.write_bits(0x1ABC, 13);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(16).unwrap(), 0x1ABC);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_bits(1).is_err());
        assert!(r.read_unary().is_err());
        assert!(BitReader::new(&bytes).read_bits(17).is_err());
        // A unary terminator on the very last bit, then one bit past it.
        let bytes = [0x00, 0x80];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary().unwrap(), 15);
        assert_eq!(r.read_bit(), Err(CodecError::Corrupt("bitstream underrun")));
        // The same at a word boundary: 64 bits, terminator on bit 63.
        let mut bytes = [0u8; 8];
        bytes[7] = 0x80;
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary().unwrap(), 63);
        assert!(r.read_unary().is_err());
    }

    #[test]
    fn into_bytes_pads_every_pending_count() {
        assert!(BitWriter::new().into_bytes().is_empty());
        for flushed in [0u32, 32] {
            for pending in 0..8u32 {
                let mut w = BitWriter::new();
                let mut bits = Vec::new();
                w.write_bits(0xDEAD_BEEF, flushed);
                push_bits(&mut bits, 0xDEAD_BEEF, flushed);
                w.write_bits(0x55, pending);
                push_bits(&mut bits, 0x55, pending);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), (flushed + pending).div_ceil(8) as usize);
                assert_eq!(bytes, reference_bytes(&bits), "{flushed}+{pending}");
            }
        }
    }

    #[test]
    fn bit_len_tracks_mixed_writes() {
        let mut w = BitWriter::new();
        let mut expect = 0;
        for (i, n) in [1u32, 7, 33, 64, 0, 31, 32, 5].into_iter().enumerate() {
            w.write_bits(i as u64 * 0x0123_4567_89AB, n);
            expect += n as usize;
            assert_eq!(w.bit_len(), expect);
            w.write_unary(n * 3);
            expect += n as usize * 3 + 1;
            assert_eq!(w.bit_len(), expect);
            w.write_bit(true);
            expect += 1;
            assert_eq!(w.bit_len(), expect);
        }
    }

    #[test]
    fn random_op_sequences_match_the_reference_layout() {
        let mut rng = SplitMix64::new(0x000B_1710);
        for _ in 0..64 {
            let mut w = BitWriter::new();
            let mut bits = Vec::new();
            let mut ops = Vec::new();
            for _ in 0..rng.below(200) {
                if rng.below(3) == 0 {
                    let v = rng.below(150) as u32;
                    w.write_unary(v);
                    push_unary(&mut bits, v);
                    ops.push((None, v as u64));
                } else {
                    let (n, v) = (rng.below(65) as u32, rng.next_u64());
                    w.write_bits(v, n);
                    push_bits(&mut bits, v, n);
                    let v = if n == 64 { v } else { v & ((1 << n) - 1) };
                    ops.push((Some(n), v));
                }
            }
            assert_eq!(w.bit_len(), bits.len());
            let bytes = w.into_bytes();
            assert_eq!(bytes, reference_bytes(&bits));
            let mut r = BitReader::new(&bytes);
            for (n, v) in ops {
                match n {
                    Some(n) => assert_eq!(r.read_bits(n).unwrap(), v),
                    None => assert_eq!(r.read_unary().unwrap() as u64, v),
                }
            }
            assert!(r.remaining() < 8);
        }
    }

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 0);
        w.write_bits(0x12345678_9ABCDEF0, 64);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(64).unwrap(), 0x12345678_9ABCDEF0);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u32, 1, 5, 13, 40] {
            w.write_unary(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in [0u32, 1, 5, 13, 40] {
            assert_eq!(r.read_unary().unwrap(), v);
        }
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn underrun_is_error() {
        let bytes = vec![0xAB];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn write_masks_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits must land
        w.write_bits(0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0F]);
    }
}
