//! RGB images and PPM/PGM output.

use std::io::Write;
use std::path::Path;

/// A simple owned RGB8 image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    /// Row-major RGB triplets.
    data: Vec<u8>,
}

impl Image {
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    pub fn filled(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        Self {
            width,
            height,
            data,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        debug_assert!(x < self.width && y < self.height);
        let o = (y * self.width + x) * 3;
        self.data[o..o + 3].copy_from_slice(&rgb);
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let o = (y * self.width + x) * 3;
        [self.data[o], self.data[o + 1], self.data[o + 2]]
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Write binary PPM (P6).
    pub fn write_ppm(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        out.write_all(&self.data)?;
        out.flush()
    }

    /// Write binary PGM (P5) using luminance.
    pub fn write_pgm(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "P5\n{} {}\n255", self.width, self.height)?;
        let grey: Vec<u8> = self
            .data
            .chunks_exact(3)
            .map(|px| (0.299 * px[0] as f32 + 0.587 * px[1] as f32 + 0.114 * px[2] as f32) as u8)
            .collect();
        out.write_all(&grey)?;
        out.flush()
    }

    /// Mean absolute per-channel difference to another image (for tests and
    /// visual-fidelity comparisons).
    pub fn mean_abs_diff(&self, other: &Image) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        sum as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn ppm_pgm_headers() {
        let dir = std::env::temp_dir().join("apc_render_image_test");
        std::fs::create_dir_all(&dir).unwrap();
        let img = Image::filled(5, 4, [255, 0, 0]);
        let ppm = dir.join("t.ppm");
        let pgm = dir.join("t.pgm");
        img.write_ppm(&ppm).unwrap();
        img.write_pgm(&pgm).unwrap();
        let ppm_bytes = std::fs::read(&ppm).unwrap();
        assert!(ppm_bytes.starts_with(b"P6\n5 4\n255\n"));
        assert_eq!(ppm_bytes.len(), 11 + 5 * 4 * 3);
        let pgm_bytes = std::fs::read(&pgm).unwrap();
        assert!(pgm_bytes.starts_with(b"P5\n5 4\n255\n"));
        assert_eq!(pgm_bytes.len(), 11 + 5 * 4);
        // Red luminance ≈ 76.
        assert_eq!(pgm_bytes[11], 76);
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let a = Image::filled(3, 3, [7, 7, 7]);
        let b = a.clone();
        assert_eq!(a.mean_abs_diff(&b), 0.0);
        let c = Image::filled(3, 3, [8, 7, 7]);
        assert!((a.mean_abs_diff(&c) - 1.0 / 3.0).abs() < 1e-12);
    }
}
