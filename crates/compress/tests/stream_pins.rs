//! Stream-format pins for the bit-level codecs.
//!
//! The round-trip suites (`proptests.rs`, `adversarial.rs`) would pass a
//! self-consistent change to the encoded format. Fpz streams are what the
//! chunk store keeps on disk and what frames carry on the wire, and Zfpx
//! streams are what degraded frames carry, so their bytes are pinned here:
//!
//! 1. **Encoded bytes** — the length and hash of every codec's stream for
//!    seeded inputs: odd shapes (1×1×1, pencils, planes), special values
//!    (NaN, ±Inf, −0, subnormals) and an 11×11×19 storm-like block.
//! 2. **Damage outcomes** — for seeded truncations and single-bit flips of
//!    each of those streams, the decoded bits, or just "error".
//!
//! A failure here means stored chunks or served frames would change. The
//! hash is FNV-1a (64-bit), so the suite needs no dependency.

use apc_compress::{FloatCodec, Fpz, Zfpx};
use apc_par::SplitMix64;

type Shape = (usize, usize, usize);

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

fn special(rng: &mut SplitMix64) -> f32 {
    match rng.below(9) {
        0 => f32::NAN,
        1 => f32::from_bits(0xFFC0_0001), // negative NaN with a payload
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => -0.0,
        5 => f32::from_bits(rng.below(0x007F_FFFF) as u32 + 1), // subnormal
        6 => f32::MAX,
        _ => rng.range_f32(-1e3, 1e3),
    }
}

/// An 11×11×19 reflectivity-like block: a tilted convective core in dBZ
/// over noisy clear air, the content the FPZIP metric scores.
fn storm_block(rng: &mut SplitMix64) -> Vec<f32> {
    let (nx, ny, nz) = (11, 11, 19);
    let mut out = Vec::with_capacity(nx * ny * nz);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let cx = 4.0 + 0.15 * k as f32;
                let cy = 6.0 - 0.1 * k as f32;
                let (dx, dy) = (i as f32 - cx, j as f32 - cy);
                let dz = (k as f32 - 7.0) / 6.0;
                let core = 68.0 * (-(dx * dx + dy * dy) / 9.0 - dz * dz).exp();
                let v = core - 20.0 + rng.range_f32(-3.0, 3.0);
                out.push(v.max(-30.0 + rng.range_f32(0.0, 0.5)));
            }
        }
    }
    out
}

/// The pinned inputs: `(name, shape, samples)`.
fn cases() -> Vec<(String, Shape, Vec<f32>)> {
    let mut rng = SplitMix64::new(0x005E_EDF0_2026);
    let shapes: [Shape; 10] = [
        (1, 1, 1),
        (13, 1, 1),
        (1, 9, 1),
        (1, 1, 7),
        (6, 5, 1),
        (1, 6, 5),
        (5, 1, 6),
        (3, 3, 3),
        (7, 5, 3),
        (17, 9, 4),
    ];
    let mut out = Vec::new();
    for shape in shapes {
        let n = shape.0 * shape.1 * shape.2;
        let smooth: Vec<f32> = (0..n)
            .map(|idx| {
                let i = idx % shape.0;
                let j = (idx / shape.0) % shape.1;
                let k = idx / (shape.0 * shape.1);
                (i as f32 * 0.3 + j as f32 * 0.1 - k as f32 * 0.2).sin() * 40.0
            })
            .collect();
        let noisy: Vec<f32> = (0..n).map(|_| rng.range_f32(-60.0, 80.0)).collect();
        let specials: Vec<f32> = (0..n).map(|_| special(&mut rng)).collect();
        out.push((format!("smooth{shape:?}"), shape, smooth));
        out.push((format!("noisy{shape:?}"), shape, noisy));
        out.push((format!("special{shape:?}"), shape, specials));
    }
    out.push((
        "storm(11, 11, 19)".into(),
        (11, 11, 19),
        storm_block(&mut rng),
    ));
    out
}

fn codecs() -> [(&'static str, Box<dyn FloatCodec>); 4] {
    [
        ("fpz", Box::new(Fpz)),
        ("zfpx-1e-3", Box::new(Zfpx { tolerance: 1e-3 })),
        ("zfpx-1e-2", Box::new(Zfpx::default())),
        ("zfpx-1e-1", Box::new(Zfpx { tolerance: 1e-1 })),
    ]
}

/// Fold one decode outcome into `h`: the decoded bits, or an error tag.
fn fold_outcome(h: &mut Fnv, codec: &dyn FloatCodec, stream: &[u8], shape: Shape) {
    match codec.decode(stream, shape) {
        Ok(v) => {
            h.u64(0x0C);
            h.u64(v.len() as u64);
            for x in v {
                h.bytes(&x.to_bits().to_le_bytes());
            }
        }
        Err(_) => h.u64(0xEE),
    }
}

/// One pin line per (codec, input): encoded length, encoded-bytes hash,
/// and the hash of the outcomes of its seeded truncations and bit flips.
fn pin_table() -> String {
    let mut rng = SplitMix64::new(0x00DA_3A6E);
    let mut lines = String::new();
    for (cname, codec) in codecs() {
        for (name, shape, data) in cases() {
            let enc = codec.encode(&data, shape);
            let mut h = Fnv::new();
            // Truncations: every prefix of short streams, 24 seeded ones
            // of long streams.
            let cuts: Vec<usize> = if enc.len() <= 24 {
                (0..enc.len()).collect()
            } else {
                (0..24).map(|_| rng.below(enc.len())).collect()
            };
            for cut in cuts {
                h.u64(cut as u64);
                fold_outcome(&mut h, codec.as_ref(), &enc[..cut], shape);
            }
            // Single-bit flips anywhere in the stream, padding included.
            for _ in 0..24.min(8 * enc.len()) {
                let bit = rng.below(8 * enc.len());
                let mut bad = enc.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                h.u64(bit as u64);
                fold_outcome(&mut h, codec.as_ref(), &bad, shape);
            }
            lines.push_str(&format!(
                "{cname} {name} {} {:016x} {:016x}\n",
                enc.len(),
                hash(&enc),
                h.0
            ));
        }
    }
    lines
}

/// `codec input encoded_len encoded_hash damage_outcome_hash`.
const PINS: &str = "\
fpz smooth(1, 1, 1) 12 7f682652c26b1bf1 1c51f5528357c006
fpz noisy(1, 1, 1) 12 3cde7f4c5af2e406 4427cce6253f8ed1
fpz special(1, 1, 1) 9 566df23ca8b5feb6 7b3068a4c41cf85c
fpz smooth(13, 1, 1) 57 8aa72513448686d1 8042faa3537731d7
fpz noisy(13, 1, 1) 65 7d6099dd9a30a945 671a709e194247ce
fpz special(13, 1, 1) 71 9a87da252c6b8e78 090785484fee7745
fpz smooth(1, 9, 1) 38 fce9eb2c7b2fb0b2 1918f102ee25aad8
fpz noisy(1, 9, 1) 47 ba6a3da3e1e860c3 522f31204fbd4269
fpz special(1, 9, 1) 50 840c2820321a429f 38d6c20035fdcd85
fpz smooth(1, 1, 7) 33 a08371d79f63ea65 d3e403d36bdf8083
fpz noisy(1, 1, 7) 39 42d5d0e7e468356d 2cc1f0b773705fc9
fpz special(1, 1, 7) 42 5267c499de038d90 095fd211d5286f88
fpz smooth(6, 5, 1) 107 6d300c1481e42036 a9b55d6e43f1f6f3
fpz noisy(6, 5, 1) 145 bb2c674bf9ab6db2 2905f6dfd260d8fb
fpz special(6, 5, 1) 149 9a0f78a857ffb8bf aa3dbba329d9b11a
fpz smooth(1, 6, 5) 126 ef7104651796dccd 418952efc9092bdb
fpz noisy(1, 6, 5) 145 fb774c192b6cd514 d7674313f920a827
fpz special(1, 6, 5) 158 9ab9e50e9a520eca 09f4b40e4a4b03b6
fpz smooth(5, 1, 6) 133 6bab2e960e61876e fc2c8aaf952b150e
fpz noisy(5, 1, 6) 148 44816c308dfea747 8b016ad65d7cd4c9
fpz special(5, 1, 6) 147 1c9c053ff477548a e9394cab63fa5352
fpz smooth(3, 3, 3) 132 bb7e2c808bcd5bcb 9d91c57d7c3ef805
fpz noisy(3, 3, 3) 125 6004ab66dfc67f1d dfd41f3e0bbf277a
fpz special(3, 3, 3) 120 528d30649e440047 40316b95080c929a
fpz smooth(7, 5, 3) 398 eddbed38ef801611 e014fbc0f7f174a9
fpz noisy(7, 5, 3) 475 4b3f8a11a67f73c5 937ad5270a2f36c2
fpz special(7, 5, 3) 491 c030555779387ae3 f0d1c3b84c9c2fb8
fpz smooth(17, 9, 4) 2132 7a4b18db14af9845 d69fe821f826c395
fpz noisy(17, 9, 4) 2723 ef876ddac2f71ff3 1b5c3612d859f4e1
fpz special(17, 9, 4) 2692 0b5348d76fc760f6 6de9e17bbed63b4b
fpz storm(11, 11, 19) 7870 d806c8cac92980d5 124d25ebe7af713c
zfpx-1e-3 smooth(1, 1, 1) 1 af63bd4c8601b7df f473a40854aa5ebb
zfpx-1e-3 noisy(1, 1, 1) 7 efc520032d39951e 84d23aba09a21e9c
zfpx-1e-3 special(1, 1, 1) 1 af63bd4c8601b7df ab2d519be2d50d0a
zfpx-1e-3 smooth(13, 1, 1) 42 bbe50f0473778eec 40a57676d925cbd0
zfpx-1e-3 noisy(13, 1, 1) 46 f8ec59c100308d09 9be09dc318e7559d
zfpx-1e-3 special(13, 1, 1) 41 c53ddb7be3fb4840 e1e133c7c580cbcf
zfpx-1e-3 smooth(1, 9, 1) 33 6d506a553c1b6f20 8e822fefad7dd613
zfpx-1e-3 noisy(1, 9, 1) 36 b6b473cf2a48ae7b 518f74b6d5d8b437
zfpx-1e-3 special(1, 9, 1) 35 e5e9eff610fa43ee 2fcc2510e27b0ba1
zfpx-1e-3 smooth(1, 1, 7) 42 74c34771ab58e08b 23025e78cf457921
zfpx-1e-3 noisy(1, 1, 7) 43 2fb92edfd52a35ea e4a82efbe80b412b
zfpx-1e-3 special(1, 1, 7) 45 378f1b7e213eae34 985f9ee5ae5e1b22
zfpx-1e-3 smooth(6, 5, 1) 85 5e1c66757a04be59 1aa82bb203b958a5
zfpx-1e-3 noisy(6, 5, 1) 105 fd3b283e6c9b80d7 da76a94037984fe4
zfpx-1e-3 special(6, 5, 1) 79 721afc6ddfdc6538 cf4060feb7a14a65
zfpx-1e-3 smooth(1, 6, 5) 141 257e391a907e6e58 4e162aebd65e1f96
zfpx-1e-3 noisy(1, 6, 5) 153 ae0043d77d301f19 4987b481167f9a12
zfpx-1e-3 special(1, 6, 5) 172 22d3c1c29c046023 ff18211897b7a6ba
zfpx-1e-3 smooth(5, 1, 6) 158 e6d1028428dd8510 30006ff1d7021e0e
zfpx-1e-3 noisy(5, 1, 6) 176 4d93e0f86ebd97ac 89032782de6d0636
zfpx-1e-3 special(5, 1, 6) 180 bfa34bc9e903529a dd327e6a9456d856
zfpx-1e-3 smooth(3, 3, 3) 117 07404d6a5e1b9536 4ecd481d3a364a14
zfpx-1e-3 noisy(3, 3, 3) 159 36ea074cd9259b9e be96aae6f28fb120
zfpx-1e-3 special(3, 3, 3) 63 7910a1db7c37b135 ab5ce3a04c46a336
zfpx-1e-3 smooth(7, 5, 3) 335 fccbb8e957e87799 6cfaf72a30d6fd19
zfpx-1e-3 noisy(7, 5, 3) 449 9969fb52a4cbbcc1 ef878a3bec1e75e7
zfpx-1e-3 special(7, 5, 3) 421 75a9bc95e9fc5f3a b7a8d383d0580da8
zfpx-1e-3 smooth(17, 9, 4) 1288 b01cd1416578aec6 2d435c0bfa326fa5
zfpx-1e-3 noisy(17, 9, 4) 1747 e43d498d009405ca be00317e7a79af13
zfpx-1e-3 special(17, 9, 4) 1690 753ae72468755f4d 2a0d9e3b54f29cb5
zfpx-1e-3 storm(11, 11, 19) 5793 f9b58af113ac5c8a ee7deab6493eff38
zfpx-1e-2 smooth(1, 1, 1) 1 af63bd4c8601b7df b3bc6337033e7fbe
zfpx-1e-2 noisy(1, 1, 1) 6 bf0eda500b48aeaa a6c11c10af857a5d
zfpx-1e-2 special(1, 1, 1) 1 af63bd4c8601b7df cc016438ca92e3fb
zfpx-1e-2 smooth(13, 1, 1) 36 b600968115494f02 91fa3d0dbc04352e
zfpx-1e-2 noisy(13, 1, 1) 40 2a63a9024979711a ed46a0b021ba8482
zfpx-1e-2 special(13, 1, 1) 39 fea95f7a8f7268d1 4a1d609bc2d99f93
zfpx-1e-2 smooth(1, 9, 1) 28 ec44a52e9a087bc8 19044a6a733ac979
zfpx-1e-2 noisy(1, 9, 1) 31 498f50414afaa195 5f372a474044763a
zfpx-1e-2 special(1, 9, 1) 31 61d479eb2a2ea7ee e9f7c6e8b8dfe673
zfpx-1e-2 smooth(1, 1, 7) 39 0c8bbf0d02683bac 767ce9ddeb03bcd6
zfpx-1e-2 noisy(1, 1, 7) 40 af7e220beafb7219 6ed36dc423d4a6ff
zfpx-1e-2 special(1, 1, 7) 43 910abe1c28a8e927 0e826e22c0ecda85
zfpx-1e-2 smooth(6, 5, 1) 68 d7bcc6ae2519ee4b 446be4b961485213
zfpx-1e-2 noisy(6, 5, 1) 89 29b441ee40e4bfbc 45861acad9a3d829
zfpx-1e-2 special(6, 5, 1) 71 b8da54f544b19dff 8eeaded839c77523
zfpx-1e-2 smooth(1, 6, 5) 125 53edb4d8323c54a3 014b19af28fbe009
zfpx-1e-2 noisy(1, 6, 5) 136 de7bf1a347e5d513 1d2d3c88f23766ff
zfpx-1e-2 special(1, 6, 5) 164 d3b7d70e2b052807 1e2f0cb81040b663
zfpx-1e-2 smooth(5, 1, 6) 142 4fa554f4df089ea5 79fd23f3aa9f2a10
zfpx-1e-2 noisy(5, 1, 6) 160 87619713ab1a2c13 55dacc7f0db45246
zfpx-1e-2 special(5, 1, 6) 170 6fdc1f65fce044d7 69e848aa2b6ee671
zfpx-1e-2 smooth(3, 3, 3) 93 43d1d9c53dee22ab efd9bfc0396e7858
zfpx-1e-2 noisy(3, 3, 3) 135 37319218aef66353 506f578a32ad6d72
zfpx-1e-2 special(3, 3, 3) 63 7910a1db7c37b135 e29564df2549cf67
zfpx-1e-2 smooth(7, 5, 3) 273 4296af264e85136c d41bfc8d686cac2b
zfpx-1e-2 noisy(7, 5, 3) 388 7db6f6df664da494 66a643178dafec00
zfpx-1e-2 special(7, 5, 3) 414 e4897cb6a8d87013 480d1c9542847487
zfpx-1e-2 smooth(17, 9, 4) 1050 1e1c9cc743a55a1e a9cf6151e93acd83
zfpx-1e-2 noisy(17, 9, 4) 1514 8689fddec8f49cf3 c00000702c5c10f6
zfpx-1e-2 special(17, 9, 4) 1690 753ae72468755f4d 4dc78293b90060ef
zfpx-1e-2 storm(11, 11, 19) 4710 d561246f717727e8 96ed35e58da358d0
zfpx-1e-1 smooth(1, 1, 1) 1 af63bd4c8601b7df 689d166f7206a06a
zfpx-1e-1 noisy(1, 1, 1) 5 a1b9be0ac6f14a6a 56847b5c3d4bfce1
zfpx-1e-1 special(1, 1, 1) 1 af63bd4c8601b7df 5ba3c75ffb69b3cc
zfpx-1e-1 smooth(13, 1, 1) 29 229584cbfdb65ce7 c5186370562d92f4
zfpx-1e-1 noisy(13, 1, 1) 33 bbe6990028d09bb7 abfe84ed8f2a8ee1
zfpx-1e-1 special(13, 1, 1) 37 2900632463a1ec9d c05dd22846a6b74b
zfpx-1e-1 smooth(1, 9, 1) 24 9e698cd101b496a8 1f3f4a15e047fc65
zfpx-1e-1 noisy(1, 9, 1) 27 2f44ad1c0d6e73f1 ec646f624dc1785d
zfpx-1e-1 special(1, 9, 1) 27 647034f3d3a0e144 4a54e62d8f8bbacd
zfpx-1e-1 smooth(1, 1, 7) 35 f673d2702b9e6ae3 7ed768dfca5f7d0a
zfpx-1e-1 noisy(1, 1, 7) 36 629d606e26aa52a2 586d7c1d54630a8c
zfpx-1e-1 special(1, 1, 7) 42 a5d6ef7317fe594f fbbf0c01bc87ef02
zfpx-1e-1 smooth(6, 5, 1) 51 4b4be1129bff6253 e5ee94d3ccb2014d
zfpx-1e-1 noisy(6, 5, 1) 72 9e39e5170b4d10f2 7e970db95789fe5c
zfpx-1e-1 special(6, 5, 1) 63 825b21a33fec2f3a 5da1eb216433ec65
zfpx-1e-1 smooth(1, 6, 5) 100 cbd218349513949e 471e131ecb8e654f
zfpx-1e-1 noisy(1, 6, 5) 120 8552e9fdcc6c4bae fbfa891c31627d77
zfpx-1e-1 special(1, 6, 5) 155 0da1f581a0a578a5 df46c8e8048d44b0
zfpx-1e-1 smooth(5, 1, 6) 125 8c24c188d2f9e795 faf193690958cbb3
zfpx-1e-1 noisy(5, 1, 6) 143 f17cbabbf0235b28 41cf92b89f13374c
zfpx-1e-1 special(5, 1, 6) 159 510e7e1f12470f28 be9bbb4b61321185
zfpx-1e-1 smooth(3, 3, 3) 66 dd34ce80a064d910 0b5011b5cfbea375
zfpx-1e-1 noisy(3, 3, 3) 111 bb4aaa2f72db3c2f 647942f5544a9a5b
zfpx-1e-1 special(3, 3, 3) 63 7910a1db7c37b135 a59520a2da3f64d7
zfpx-1e-1 smooth(7, 5, 3) 204 39526b9af7c8ef36 8557dfd4752b8063
zfpx-1e-1 noisy(7, 5, 3) 328 35035f98f219227f 8e5dfeeebb69df58
zfpx-1e-1 special(7, 5, 3) 408 39bf0b520fbbe240 609ef9468848d168
zfpx-1e-1 smooth(17, 9, 4) 777 445fc84e6da4a9dc 152f61afbd198ddb
zfpx-1e-1 noisy(17, 9, 4) 1282 b8907fc6105305c4 9f18390187e0edd4
zfpx-1e-1 special(17, 9, 4) 1690 753ae72468755f4d d271ff8dd4a98c34
zfpx-1e-1 storm(11, 11, 19) 3619 9a0f227f61ee99c8 e445decb8e128cf1
";

#[test]
fn encoded_streams_and_damage_outcomes_match_pins() {
    assert_eq!(
        pin_table(),
        PINS,
        "the Fpz/Zfpx stream format changed: stored chunks and served \
         frames would no longer decode to the same bits"
    );
}
