//! A procedural supercell: the storm whose locality drives the paper's
//! load-imbalance story.
//!
//! The model composes, in normalized coordinates `p ∈ [0,1]³`, a condensate
//! envelope with the classic supercell anatomy that Fig. 1 of the paper
//! shows: a rotating core, a *weak echo region* (the vault under the
//! updraft the 45 dBZ isosurface reveals), a low-level *hook echo*, an
//! *anvil* spreading aloft, and a flanking line of smaller cells. A
//! multi-octave turbulence texture gives the interior the high local
//! variability that information-theoretic metrics key on (ITL/FPZIP score
//! the storm's inside high, §V-B).
//!
//! Everything is a pure function of `(position, iteration, seed)`.

use apc_grid::{Dims3, Field3, RectilinearCoords};

use crate::hydro::Hydrometeors;
use crate::noise::fbm3;

#[inline]
fn smoothstep01(t: f32) -> f32 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// The storm model and its timeline.
#[derive(Debug, Clone)]
pub struct StormModel {
    pub seed: u64,
    /// Length of the replayed timeline (the paper's dataset has 572
    /// iterations).
    pub n_iterations: usize,
}

impl Default for StormModel {
    fn default() -> Self {
        Self {
            seed: 0xC1_5EED,
            n_iterations: 572,
        }
    }
}

impl StormModel {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Normalized time `τ ∈ [0, 1]` of an iteration.
    pub fn tau(&self, iteration: usize) -> f32 {
        if self.n_iterations <= 1 {
            return 0.0;
        }
        (iteration.min(self.n_iterations - 1)) as f32 / (self.n_iterations - 1) as f32
    }

    /// Horizontal storm-center position at time `τ` (the storm tracks
    /// northeastward across the domain, staying clear of the stretched
    /// border — CM1 domains are sized for exactly that, §II-A).
    pub fn center(&self, tau: f32) -> [f32; 2] {
        [0.33 + 0.30 * tau, 0.36 + 0.24 * tau]
    }

    /// Storm intensity at time `τ`: spin-up ramp plus a slow pulse.
    pub fn intensity(&self, tau: f32) -> f32 {
        smoothstep01(tau / 0.2 + 0.35) * (0.92 + 0.08 * (tau * 12.0).sin())
    }

    /// Horizontal core radius at normalized height `z` (anvil spreads
    /// aloft; kept moderate so the echo stays spatially local — the
    /// property the paper's whole pipeline exploits).
    fn sigma_h(&self, z: f32) -> f32 {
        let anvil = smoothstep01((z - 0.55) / 0.40);
        0.060 * (1.0 + 0.8 * anvil)
    }

    /// Condensate below this saturation floor evaporates. Without it the
    /// Gaussian envelope's tail stays radar-visible for ~5σ in log space
    /// and the echo loses the spatial locality the paper's data has.
    const CONDENSATE_FLOOR: f32 = 0.05;

    /// Condensate envelope in `[0, 1]` at normalized position `p`, time `τ`.
    pub fn condensate(&self, p: [f32; 3], tau: f32) -> f32 {
        let [x, y, z] = p;
        let c = self.center(tau);
        let intensity = self.intensity(tau);

        // Main cell.
        let sh = self.sigma_h(z);
        let dx = x - c[0];
        let dy = y - c[1];
        let r2 = dx * dx + dy * dy;
        let vertical = if z < 0.60 {
            1.0
        } else {
            1.0 - 0.65 * smoothstep01((z - 0.60) / 0.38)
        } * (1.0 - smoothstep01((z - 0.93) / 0.07)); // echo top
        let mut env = intensity * vertical * (-r2 / (2.0 * sh * sh)).exp();

        // Flanking line: three smaller cells trailing southwest.
        for (idx, (dist, amp)) in [(0.085f32, 0.45f32), (0.16, 0.35), (0.23, 0.25)]
            .iter()
            .enumerate()
        {
            let pulse = 0.8 + 0.2 * ((tau * 17.0) + idx as f32 * 2.1).sin();
            let fx = c[0] - dist * 0.83;
            let fy = c[1] - dist * 0.55;
            let fr2 = (x - fx).powi(2) + (y - fy).powi(2);
            let fsh = 0.028;
            env += intensity
                * amp
                * pulse
                * vertical
                * (1.0 - smoothstep01((z - 0.55) / 0.2))
                * (-fr2 / (2.0 * fsh * fsh)).exp();
        }

        // Hook echo: a low-level appendage curling around the mesocyclone.
        if z < 0.30 {
            let rot = 2.2 * tau; // the hook precesses as the storm matures
            let theta = dy.atan2(dx);
            let hook_theta = -2.3 + rot;
            let mut dth = theta - hook_theta;
            while dth > std::f32::consts::PI {
                dth -= 2.0 * std::f32::consts::PI;
            }
            while dth < -std::f32::consts::PI {
                dth += 2.0 * std::f32::consts::PI;
            }
            let rh = 1.35 * sh;
            let r = r2.sqrt();
            env += intensity
                * 0.55
                * (1.0 - z / 0.30)
                * (-((r - rh) * (r - rh)) / (2.0 * 0.014 * 0.014)).exp()
                * (-dth * dth / (2.0 * 0.55 * 0.55)).exp();
        }

        // Weak echo region: the inflow vault carved out at low levels,
        // offset toward the storm's inflow flank.
        if z < 0.38 {
            let wx = c[0] + 0.022;
            let wy = c[1] - 0.020;
            let wr2 = (x - wx).powi(2) + (y - wy).powi(2);
            let depth = (1.0 - z / 0.38) * 0.85;
            env -= depth * env * (-wr2 / (2.0 * 0.020 * 0.020)).exp();
        }

        // Turbulent texture: strong inside the storm, absent outside. The
        // additive part is proportional to the envelope so the storm's
        // faint fringe stays smooth (in log-reflectivity space a relative
        // perturbation is a bounded dB wiggle).
        if env > 1e-3 {
            let freq = 11.0;
            let drift = tau * 3.0;
            let tex = fbm3(
                x * freq + drift,
                y * freq - 0.6 * drift,
                z * freq * 0.7,
                5,
                self.seed,
            );
            env = env * (1.0 + 0.45 * tex) + 0.35 * env * tex.max(0.0);
        }

        // Saturation floor: evaporate the faint tail, renormalize the rest.
        ((env - Self::CONDENSATE_FLOOR).max(0.0) / (1.0 - Self::CONDENSATE_FLOOR)).clamp(0.0, 1.0)
    }

    /// Normalize grid coordinates to `[0,1]³` using the physical bounds.
    fn normalizer(coords: &RectilinearCoords) -> impl Fn(usize, usize, usize) -> [f32; 3] + '_ {
        let (lo, hi) = coords.bounds();
        let span = [
            (hi[0] - lo[0]).max(f32::MIN_POSITIVE),
            (hi[1] - lo[1]).max(f32::MIN_POSITIVE),
            (hi[2] - lo[2]).max(f32::MIN_POSITIVE),
        ];
        move |i, j, k| {
            let p = coords.position(i, j, k);
            [
                (p[0] - lo[0]) / span[0],
                (p[1] - lo[1]) / span[1],
                (p[2] - lo[2]) / span[2],
            ]
        }
    }

    /// Hydrometeor mixing-ratio fields on (part of) the grid.
    /// `offset`/`dims` select a sub-box of the coordinate arrays, so ranks
    /// can generate just their subdomain.
    pub fn hydrometeors_on(
        &self,
        coords: &RectilinearCoords,
        offset: (usize, usize, usize),
        dims: Dims3,
        iteration: usize,
    ) -> Hydrometeors {
        let tau = self.tau(iteration);
        let norm = Self::normalizer(coords);
        let mut qr = Vec::with_capacity(dims.len());
        let mut qs = Vec::with_capacity(dims.len());
        let mut qg = Vec::with_capacity(dims.len());
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let p = norm(offset.0 + i, offset.1 + j, offset.2 + k);
                    let c = self.condensate(p, tau);
                    let z = p[2];
                    // Height partition: rain below the freezing level, snow
                    // aloft, hail (graupel) in the strong core only. The
                    // snow onset is wide so the anvil base is a gentle dB
                    // gradient rather than a block-scale cliff.
                    qr.push(c * (1.0 - smoothstep01((z - 0.15) / 0.45)) * 6.0e-3);
                    qs.push(c * smoothstep01((z - 0.35) / 0.45) * 4.0e-3);
                    let core = (-(((z - 0.33) / 0.22) * ((z - 0.33) / 0.22))).exp();
                    qg.push(c * c * core * 8.0e-3);
                }
            }
        }
        Hydrometeors {
            // apc-lint: allow(unwrap-in-lib): each vec gets one push per grid cell of `dims`
            qr: Field3::from_vec(dims, qr).expect("capacity matches dims"),
            // apc-lint: allow(unwrap-in-lib): each vec gets one push per grid cell of `dims`
            qs: Field3::from_vec(dims, qs).expect("capacity matches dims"),
            // apc-lint: allow(unwrap-in-lib): each vec gets one push per grid cell of `dims`
            qg: Field3::from_vec(dims, qg).expect("capacity matches dims"),
        }
    }

    /// Reflectivity (dBZ) on a sub-box of the grid — the field the paper's
    /// whole evaluation renders.
    pub fn reflectivity_on(
        &self,
        coords: &RectilinearCoords,
        offset: (usize, usize, usize),
        dims: Dims3,
        iteration: usize,
    ) -> Field3 {
        let hydro = self.hydrometeors_on(coords, offset, dims, iteration);
        let norm = Self::normalizer(coords);
        let tau = self.tau(iteration);
        // Global normalized height of each z-plane of this sub-box.
        let heights: Vec<f32> = (0..dims.nz)
            .map(|k| norm(offset.0, offset.1, offset.2 + k)[2])
            .collect();
        let mut dbz = crate::hydro::reflectivity_from_hydrometeors_at(&hydro, &heights);
        // Clear-air background: weak, *flat* noise near the sensitivity
        // floor. Real clear air returns essentially nothing to the radar;
        // keeping it flat is what gives the paper its "set of blocks that
        // all metrics agree are not variable enough" (§V-B).
        let data = dbz.as_mut_slice();
        let mut idx = 0;
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let p = norm(offset.0 + i, offset.1 + j, offset.2 + k);
                    let bg = -58.0
                        + 2.0
                            * (fbm3(
                                p[0] * 5.0 + tau,
                                p[1] * 5.0,
                                p[2] * 3.0,
                                3,
                                self.seed ^ 0xBA5E,
                            ) * 0.5
                                + 0.5);
                    if data[idx] < bg {
                        data[idx] = bg;
                    }
                    data[idx] = data[idx].clamp(crate::DBZ_MIN, crate::DBZ_MAX);
                    idx += 1;
                }
            }
        }
        dbz
    }

    /// Whole-domain reflectivity field.
    pub fn reflectivity(&self, coords: &RectilinearCoords, iteration: usize) -> Field3 {
        self.reflectivity_on(coords, (0, 0, 0), coords.dims(), iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DBZ_ISOVALUE, DBZ_MAX, DBZ_MIN};

    fn small_coords() -> RectilinearCoords {
        RectilinearCoords::uniform(Dims3::new(48, 48, 12), 1.0)
    }

    #[test]
    fn condensate_is_bounded_and_deterministic() {
        let m = StormModel::default();
        for i in 0..200 {
            let p = [
                (i % 20) as f32 / 20.0,
                (i / 20) as f32 / 10.0,
                (i % 7) as f32 / 7.0,
            ];
            let c = m.condensate(p, 0.5);
            assert!((0.0..=1.0).contains(&c), "condensate {c} at {p:?}");
            assert_eq!(c, m.condensate(p, 0.5));
        }
    }

    #[test]
    fn storm_core_is_wet_and_far_field_is_dry() {
        let m = StormModel::default();
        let tau = 0.5;
        let c = m.center(tau);
        let core = m.condensate([c[0], c[1], 0.45], tau);
        let far = m.condensate([0.05, 0.9, 0.45], tau);
        assert!(core > 0.4, "core condensate too weak: {core}");
        assert!(far < 0.01, "far field should be clear: {far}");
    }

    #[test]
    fn weak_echo_region_carves_the_low_levels() {
        let m = StormModel {
            seed: 1,
            ..Default::default()
        };
        let tau = 0.5;
        let c = m.center(tau);
        // At the WER position, low-level condensate is depressed relative
        // to the same column higher up.
        let wer_low = m.condensate([c[0] + 0.022, c[1] - 0.020, 0.06], tau);
        let wer_mid = m.condensate([c[0] + 0.022, c[1] - 0.020, 0.50], tau);
        assert!(
            wer_low < 0.6 * wer_mid,
            "WER should carve low levels: low {wer_low} vs mid {wer_mid}"
        );
    }

    #[test]
    fn reflectivity_in_valid_range_with_isosurface_present() {
        let m = StormModel::default();
        let coords = small_coords();
        let f = m.reflectivity(&coords, 300);
        let (lo, hi) = f.min_max().unwrap();
        assert!(lo >= DBZ_MIN && hi <= DBZ_MAX, "range [{lo}, {hi}]");
        assert!(
            hi > DBZ_ISOVALUE,
            "storm must pierce the 45 dBZ isovalue, max {hi}"
        );
        assert!(lo < -40.0, "clear air must stay near the floor, min {lo}");
    }

    #[test]
    fn storm_is_spatially_localized() {
        // The paper's central premise: the interesting region is a small
        // fraction of the domain. Count columns whose max dBZ exceeds the
        // isovalue.
        let m = StormModel::default();
        let coords = small_coords();
        let f = m.reflectivity(&coords, 300);
        let d = f.dims();
        let mut hot_columns = 0;
        for j in 0..d.ny {
            for i in 0..d.nx {
                let mut colmax = f32::MIN;
                for k in 0..d.nz {
                    colmax = colmax.max(f.get(i, j, k));
                }
                if colmax > DBZ_ISOVALUE {
                    hot_columns += 1;
                }
            }
        }
        let frac = hot_columns as f64 / (d.nx * d.ny) as f64;
        assert!(
            frac > 0.005 && frac < 0.25,
            "storm covers {frac:.3} of the domain (want localized but present)"
        );
    }

    #[test]
    fn storm_moves_over_time() {
        let m = StormModel::default();
        let c0 = m.center(m.tau(0));
        let c1 = m.center(m.tau(571));
        let d = ((c1[0] - c0[0]).powi(2) + (c1[1] - c0[1]).powi(2)).sqrt();
        assert!(d > 0.2, "storm should traverse the domain, moved {d}");
        assert!(
            c1[0] < 0.85 && c1[1] < 0.85,
            "storm must stay inside the domain"
        );
    }

    #[test]
    fn subbox_generation_matches_full_field() {
        let m = StormModel::default();
        let coords = small_coords();
        let full = m.reflectivity(&coords, 100);
        let sub = m.reflectivity_on(&coords, (10, 20, 3), Dims3::new(5, 4, 6), 100);
        for k in 0..6 {
            for j in 0..4 {
                for i in 0..5 {
                    assert_eq!(sub.get(i, j, k), full.get(10 + i, 20 + j, 3 + k));
                }
            }
        }
    }
}
