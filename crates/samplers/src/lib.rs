//! Exact, constant-draw seeded samplers.
//!
//! Every generator in this workspace is driven by a seeded ChaCha8
//! stream, and at full scale the traffic generator is the hot path —
//! so samplers here are chosen for a *bounded uniform budget per
//! draw*, not per unit of probability mass simulated:
//!
//! * [`poisson`] — exact at every mean: sequential CDF inversion
//!   (one uniform) below a small-mean cutoff, Hörmann's PTRS
//!   transformed rejection (O(1) uniforms, ~1.1 expected) above it.
//!   Replaces Knuth's product method (~mean+1 uniforms) and the
//!   *approximate* clamped-normal large-mean fallback.
//! * [`binomial`] — exact at every size: BINV sequential inversion
//!   (one uniform) while `n·min(p,1-p)` is small, BTPE
//!   triangle/parallelogram/tail rejection above it. Replaces both the
//!   per-packet Bernoulli loop (up to n uniforms) and the approximate
//!   continuity-corrected normal used for large flows.
//! * [`NormalCache`] — Box–Muller produces two independent normals
//!   from two uniforms; the cache hands out both instead of
//!   discarding the sine variate.
//! * [`map_bits_u32`] — widening multiply-shift from 32 random bits
//!   onto `0..n`, for collapsing several per-flow field draws into one
//!   split `u64`.
//! * [`PairThinning`] — 1-in-N packet sampling applied at generation:
//!   of `n` log-normal request/response pairs it draws exactly the
//!   ones a router's sampler would see, with their sampled packet
//!   counts, without drawing the unseen ones. Built on [`erfc`] /
//!   [`normal_cdf`], the truncated normals [`normal_above`] /
//!   [`normal_below`], [`binomial_nonzero`] and [`sampled_pair`].
//! * [`PacketTable`] — the thinning's per-packet-count constants
//!   (`1 − qⁿ`, `qⁿ` and two restart bounds, `q = 1 − 1/N`) for every
//!   count below [`PACKET_TABLE_LEN`], built once per sampling
//!   interval. Each entry is computed by the function the samplers
//!   evaluate inline, so [`PairThinning::thin_with`] and
//!   [`PacketTable::sampled_pair`] make the same draws and return the
//!   same values as [`PairThinning::thin`] and [`sampled_pair`].
//!
//! All samplers consume the RNG deterministically, so same-seed runs
//! stay bit-identical; swapping them in *re-pins* every downstream
//! seeded stream exactly once.

#![forbid(unsafe_code)]

use rand::Rng;

/// Mean below which [`poisson`] uses one-uniform CDF inversion.
pub const POISSON_INVERSION_CUTOFF: f64 = 10.0;

/// `n·min(p,1-p)` below which [`binomial`] uses one-uniform BINV
/// inversion.
pub const BINOMIAL_INVERSION_CUTOFF: f64 = 10.0;

/// Natural log of the gamma function (Lanczos approximation, g = 7,
/// 9 coefficients; |rel err| < 1e-13 on the positive axis we use).
///
/// `f64::ln_gamma` is nightly-only and the vendored crate set has no
/// `libm`, so the samplers carry their own.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula; only reached for arguments < 0.5, which
        // the samplers never produce (they pass k + 1 ≥ 1).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let mut a = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Draws from Poisson(`mean`), exactly, at any mean.
///
/// One uniform (sequential CDF inversion) below
/// [`POISSON_INVERSION_CUTOFF`]; Hörmann's PTRS transformed rejection
/// above it, which accepts with ~87 % probability per (u, v) pair so
/// the expected uniform budget is ~2.3 regardless of the mean.
pub fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < POISSON_INVERSION_CUTOFF {
        poisson_inversion(rng, mean)
    } else {
        poisson_ptrs(rng, mean)
    }
}

/// Sequential CDF search: walk the pmf until the single uniform is
/// consumed. Expected work is O(mean) multiplications but exactly one
/// RNG draw.
fn poisson_inversion<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    let mut u: f64 = rng.gen();
    let mut k = 0u64;
    let mut pmf = (-mean).exp();
    loop {
        if u <= pmf {
            return k;
        }
        u -= pmf;
        k += 1;
        pmf *= mean / k as f64;
        if k > 500 {
            return mean.round() as u64; // float-tail guard; unreachable in practice
        }
    }
}

/// PTRS: transformed rejection with squeeze (Hörmann 1993), valid for
/// mean ≥ 10. Exact — the final comparison is against the true
/// log-pmf via [`ln_gamma`].
fn poisson_ptrs<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    let log_mean = mean.ln();
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.024_83 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64; // squeeze accept (the common case)
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if (v * inv_alpha / (a / (us * us) + b)).ln() <= k * log_mean - mean - ln_gamma(k + 1.0) {
            return k as u64;
        }
    }
}

/// Draws from Binomial(`n`, `p`), exactly, at any size.
///
/// One uniform (BINV sequential inversion) while `n·min(p,1-p)` is
/// below [`BINOMIAL_INVERSION_CUTOFF`]; BTPE rejection above it (O(1)
/// uniforms). `p > 0.5` is mirrored onto `n - Binomial(n, 1-p)`.
pub fn binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        n - binomial_half(rng, n, 1.0 - p)
    } else {
        binomial_half(rng, n, p)
    }
}

/// Dispatch for `p ≤ 0.5`.
fn binomial_half<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n as f64 * p < BINOMIAL_INVERSION_CUTOFF {
        // BINV from q^n, no underflow while np is small.
        let base = (n as f64 * (1.0 - p).ln()).exp();
        binv_from(rng, n, p, base, binv_bound(n, p))
    } else {
        binomial_btpe(rng, n, p)
    }
}

/// BINV's restart bound: the pmf mass beyond mean + 10σ is < 1e-20; a
/// uniform pointing past it is float-tail noise, so redraw.
fn binv_bound(n: u64, p: f64) -> u64 {
    let np = n as f64 * p;
    (np + 10.0 * (np * (1.0 - p) + 1.0).sqrt()).min(n as f64) as u64
}

/// BINV: invert one uniform through the pmf recursion
/// `f(k+1) = f(k)·(n-k)p / ((k+1)q)`, from `base = (1−p)^n` and with
/// the restart bound [`binv_bound`]. Expected work is O(np)
/// multiplications — for the 1-in-1000 packet-sampling case (np ≈
/// 0.02) the loop body almost never runs at all.
fn binv_from<R: Rng>(rng: &mut R, n: u64, p: f64, base: f64, bound: u64) -> u64 {
    let s = p / (1.0 - p);
    loop {
        let mut u: f64 = rng.gen();
        let mut k = 0u64;
        let mut pmf = base;
        loop {
            if u <= pmf {
                return k;
            }
            u -= pmf;
            k += 1;
            if k > bound {
                break; // redraw
            }
            pmf *= s * (n - k + 1) as f64 / k as f64;
        }
    }
}

/// BTPE (Kachitvichyanukul & Schmeiser 1988): sample from a
/// triangle + parallelogram + two exponential tails hat, accept
/// against the exact pmf ratio `f(y)/f(m)` via [`ln_gamma`].
/// Requires `p ≤ 0.5` and `np` above the inversion cutoff.
fn binomial_btpe<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let npq = nf * p * q;
    let fm = nf * p + p;
    let m = fm.floor();
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let xm = m + 0.5;
    let xl = xm - p1;
    let xr = xm + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let a = (fm - xl) / (fm - xl * p);
    let lambda_l = a * (1.0 + 0.5 * a);
    let a = (xr - fm) / (xr * q);
    let lambda_r = a * (1.0 + 0.5 * a);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;
    let log_odds = (p / q).ln();
    let lg_m = ln_gamma(m + 1.0) + ln_gamma(nf - m + 1.0);

    loop {
        let u = rng.gen::<f64>() * p4;
        let mut v: f64 = rng.gen();
        let y: f64;
        if u <= p1 {
            // Triangular core: under the pmf everywhere, accept as-is.
            y = (xm - p1 * v + u).floor();
            return y.clamp(0.0, nf) as u64;
        } else if u <= p2 {
            // Parallelogram above the triangle.
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (x - xm).abs() / p1;
            if v <= 0.0 || v > 1.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (xl + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = (xr - v.ln() / lambda_r).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }
        if y < 0.0 || y > nf {
            continue;
        }
        // Exact accept test: v ≤ f(y)/f(m), in logs.
        let log_ratio = lg_m - ln_gamma(y + 1.0) - ln_gamma(nf - y + 1.0) + (y - m) * log_odds;
        if v.ln() <= log_ratio {
            return y as u64;
        }
    }
}

/// Paired Box–Muller: two uniforms make two independent standard
/// normals; the cache hands out the cosine variate immediately and
/// the sine variate on the next call instead of discarding it.
#[derive(Debug, Clone, Default)]
pub struct NormalCache {
    spare: Option<f64>,
}

impl NormalCache {
    /// A cache with no banked variate.
    pub fn new() -> Self {
        NormalCache::default()
    }

    /// Draws a standard normal (N(0,1)).
    pub fn standard_normal<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws from a log-normal with the given *median* (`exp(mu)`)
    /// and shape `sigma` (σ of the underlying normal).
    pub fn log_normal<R: Rng>(&mut self, rng: &mut R, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.standard_normal(rng)).exp()
    }
}

/// One-shot standard normal for callers without a [`NormalCache`]
/// (discards the paired variate).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    NormalCache::new().standard_normal(rng)
}

/// One-shot log-normal (see [`NormalCache::log_normal`]).
pub fn log_normal<R: Rng>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    NormalCache::new().log_normal(rng, median, sigma)
}

/// Maps 32 uniform random bits onto `0..n` with one widening
/// multiply and no rejection loop.
///
/// Used to collapse several small per-flow field draws into one split
/// `u64`. Unlike Lemire rejection this is not perfectly unbiased: the
/// per-value probability deviates by at most `n / 2^32` relatively
/// (< 3·10⁻⁵ for the ranges the generator uses) — far below anything
/// a simulation-scale sample can resolve, and draw count stays
/// constant.
#[inline]
pub fn map_bits_u32(bits: u32, n: u32) -> u32 {
    ((u64::from(bits) * u64::from(n)) >> 32) as u32
}

/// Depth of the bottom-up continued fraction in [`erfc`].
const ERFC_CF_DEPTH: u32 = 120;

/// The complementary error function `erfc(x) = 1 − erf(x)`, to about
/// 1e-14 relative accuracy on the whole real line.
///
/// Two classical expansions from Abramowitz & Stegun, *Handbook of
/// Mathematical Functions* (1964): below 2 the series 7.1.6,
/// `erf(x) = 2/√π · e^(−x²) · Σ 2ⁿ x^(2n+1) / (1·3···(2n+1))`, whose
/// terms are all positive (no cancellation inside the sum); from 2 up
/// the continued fraction 7.1.14,
/// `erfc(x) = e^(−x²)/√π · 1/(x + ½/(x + 1/(x + (3/2)/(x + …))))`,
/// evaluated bottom-up at a fixed depth. Negative arguments use
/// `erfc(−x) = 2 − erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let inv_sqrt_pi = 1.0 / std::f64::consts::PI.sqrt();
    if x < 2.0 {
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        let mut n = 0.0;
        while term > sum * 1e-17 {
            n += 1.0;
            term *= 2.0 * x2 / (2.0 * n + 1.0);
            sum += term;
        }
        return 1.0 - 2.0 * inv_sqrt_pi * (-x2).exp() * sum;
    }
    let mut g = x;
    for n in (1..=ERFC_CF_DEPTH).rev() {
        g = x + 0.5 * f64::from(n) / g;
    }
    inv_sqrt_pi * (-x * x).exp() / g
}

/// The standard normal CDF `Φ(x) = erfc(−x/√2) / 2` (see [`erfc`]);
/// accurate in relative terms deep into the lower tail.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Draws a standard normal conditioned on `Z ≥ a`, exactly.
///
/// For `a ≤ 0` plain rejection from N(0,1) (acceptance ≥ ½); above,
/// Robert's translated-exponential rejection (C. P. Robert,
/// "Simulation of truncated normal variables", *Statistics and
/// Computing* 5, 1995), whose acceptance rate is ≥ 76 % at every `a`.
pub fn normal_above<R: Rng>(normals: &mut NormalCache, rng: &mut R, a: f64) -> f64 {
    if a <= 0.0 {
        loop {
            let z = normals.standard_normal(rng);
            if z >= a {
                return z;
            }
        }
    }
    let alpha = 0.5 * (a + (a * a + 4.0).sqrt());
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let z = a - u.ln() / alpha;
        let v: f64 = rng.gen();
        if v <= (-0.5 * (z - alpha) * (z - alpha)).exp() {
            return z;
        }
    }
}

/// Draws a standard normal conditioned on `Z < b`, exactly (the mirror
/// of [`normal_above`]).
pub fn normal_below<R: Rng>(normals: &mut NormalCache, rng: &mut R, b: f64) -> f64 {
    -normal_above(normals, rng, -b)
}

/// Draws from Binomial(`n`, `p`) conditioned on a nonzero result (the
/// zero-truncated binomial), exactly. Requires `n ≥ 1` and `p > 0`.
///
/// While the zero class holds at most half the mass, redraw
/// [`binomial`] until it is nonzero (≤ 2 draws expected); otherwise
/// invert one uniform through the truncated pmf
/// `f(i) / (1 − (1−p)ⁿ)`, `i ≥ 1`.
pub fn binomial_nonzero<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!(
        n >= 1 && p > 0.0,
        "zero-truncated binomial needs n ≥ 1, p > 0"
    );
    nonzero_given(rng, n, p, seen_mass(n, (-p).ln_1p()), nonzero_bound(n, p))
}

/// `1 − qⁿ = −expm1(n·ln q)` for `log_q = ln q = ln(1 − p)`: the chance
/// that 1-in-N sampling keeps any of `n` packets.
fn seen_mass(n: u64, log_q: f64) -> f64 {
    -(n as f64 * log_q).exp_m1()
}

/// `qⁿ = exp(n·ln q)`: the chance that it keeps none of them.
fn unseen_mass(n: u64, log_q: f64) -> f64 {
    (n as f64 * log_q).exp()
}

/// The zero-truncated inversion's restart bound: as in BINV, a uniform
/// pointing past mean + 10σ is float-tail noise.
fn nonzero_bound(n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let np = nf * p;
    (1.0 + np + 10.0 * (np * (1.0 - p) + 1.0).sqrt()).min(nf) as u64
}

/// [`binomial_nonzero`] with its mass `1 − (1−p)ⁿ` and its restart
/// bound [`nonzero_bound`] already known.
fn nonzero_given<R: Rng>(rng: &mut R, n: u64, p: f64, mass: f64, bound: u64) -> u64 {
    if p >= 1.0 {
        return n;
    }
    let q_n = 1.0 - mass;
    if q_n <= 0.5 {
        loop {
            let x = binomial(rng, n, p);
            if x > 0 {
                return x;
            }
        }
    }
    let odds = p / (1.0 - p);
    let first = n as f64 * odds * q_n;
    loop {
        let mut u = rng.gen::<f64>() * mass;
        let mut i = 1u64;
        let mut pmf = first;
        while i <= bound {
            if u <= pmf {
                return i;
            }
            u -= pmf;
            pmf *= odds * (n - i) as f64 / (i + 1) as f64;
            i += 1;
        }
    }
}

/// [`binomial`] with BINV's start `(1−p)ⁿ` and restart bound supplied
/// by `binv`, which runs only where [`binomial`] would run BINV: the
/// same draws.
fn binomial_given<R: Rng>(rng: &mut R, n: u64, p: f64, binv: impl FnOnce() -> (f64, u64)) -> u64 {
    if n == 0 || p <= 0.0 || p > 0.5 || n as f64 * p >= BINOMIAL_INVERSION_CUTOFF {
        return binomial(rng, n, p);
    }
    let (base, bound) = binv();
    binv_from(rng, n, p, base, bound)
}

/// Draws what a 1-in-N sampler (`p = 1/N`, `log_q = ln(1 − p)`) keeps
/// of a `k`-packet flow and its `k_up`-packet counterpart, *given* that
/// it keeps at least one packet of the two: `(d, u)` from
/// Bin(k, p) × Bin(k_up, p) conditioned on `d + u ≥ 1`, exactly.
///
/// `d > 0` with probability `(1 − qᵏ) / (1 − q^(k+k_up))`; then `d` is
/// zero-truncated and `u` unconditioned, else `d = 0` and `u` is
/// zero-truncated. Requires `k ≥ 1`. At `p = 1` this returns
/// `(k, k_up)` without a draw.
///
/// Every constant is computed inline; [`PacketTable::sampled_pair`]
/// makes the same draws from tabled constants.
pub fn sampled_pair<R: Rng>(rng: &mut R, k: u64, k_up: u64, p: f64, log_q: f64) -> (u64, u64) {
    let table = PacketTable::inline(p, log_q);
    table.sampled_pair(rng, k, k_up, table.seen(k + k_up))
}

/// Packet counts below which a [`PacketTable`] holds its constants.
/// From it up they are computed inline: at 1:1000 that is ≈1 % of the
/// generator's kept pairs (2.2 % of background pairs, 0.5 % of website
/// pairs and almost no API pairs), all from the envelope's upper part.
pub const PACKET_TABLE_LEN: u64 = 1024;

/// The constants of one packet count `n` under 1-in-N sampling.
#[derive(Debug, Clone, Copy)]
struct PacketConstants {
    /// `1 − qⁿ` ([`seen_mass`]).
    seen: f64,
    /// `qⁿ` ([`unseen_mass`]), BINV's start.
    unseen: f64,
    /// [`nonzero_bound`]`(n, p)`.
    nonzero_bound: u64,
    /// [`binv_bound`]`(n, p)`.
    binv_bound: u64,
}

impl PacketConstants {
    fn of(n: u64, p: f64, log_q: f64) -> Self {
        PacketConstants {
            seen: seen_mass(n, log_q),
            unseen: unseen_mass(n, log_q),
            nonzero_bound: nonzero_bound(n, p),
            binv_bound: binv_bound(n, p),
        }
    }
}

/// The per-packet-count constants of 1-in-N sampling (`p = 1/N`,
/// `q = 1 − p`), computed once per interval instead of once per drawn
/// pair.
///
/// For each packet count `n` below [`PACKET_TABLE_LEN`] it holds
/// `1 − qⁿ` (the chance a sampler sees any of `n` packets, and the
/// zero-truncated binomial's mass), `qⁿ` (BINV's start) and the restart
/// bounds of the zero-truncated inversion and of BINV, each computed by
/// the very function [`sampled_pair`] evaluates inline, so every entry
/// is bit-equal to it; from [`PACKET_TABLE_LEN`] up the constants are
/// computed inline. [`PairThinning::thin_with`] and
/// [`PacketTable::sampled_pair`] therefore make the same draws and
/// return the same values as [`PairThinning::thin`] and
/// [`sampled_pair`]. The table takes 32 KiB.
#[derive(Debug, Clone)]
pub struct PacketTable {
    p: f64,
    log_q: f64,
    entries: Box<[PacketConstants]>,
}

impl PacketTable {
    /// The table of 1-in-`interval` sampling (`interval` is clamped to
    /// ≥ 1, as in [`PairThinning::new`]).
    pub fn new(interval: u32) -> Self {
        let p = 1.0 / f64::from(interval.max(1));
        let log_q = (-p).ln_1p();
        PacketTable {
            p,
            log_q,
            entries: (0..PACKET_TABLE_LEN)
                .map(|n| PacketConstants::of(n, p, log_q))
                .collect(),
        }
    }

    /// An empty table: every constant computed inline.
    fn inline(p: f64, log_q: f64) -> Self {
        PacketTable {
            p,
            log_q,
            entries: Box::new([]),
        }
    }

    /// The constants of `n` packets, if tabled.
    fn entry(&self, n: u64) -> Option<&PacketConstants> {
        usize::try_from(n).ok().and_then(|i| self.entries.get(i))
    }

    /// `1 − qⁿ`: the chance the sampler keeps any of `n` packets.
    pub fn seen(&self, n: u64) -> f64 {
        self.entry(n)
            .map_or_else(|| seen_mass(n, self.log_q), |c| c.seen)
    }

    /// The zero-truncated inversion's restart bound for `n` packets.
    fn nonzero_bound(&self, n: u64) -> u64 {
        self.entry(n)
            .map_or_else(|| nonzero_bound(n, self.p), |c| c.nonzero_bound)
    }

    /// BINV's start `qⁿ` and restart bound for `n` packets.
    fn binv_start(&self, n: u64) -> (f64, u64) {
        self.entry(n).map_or_else(
            || (unseen_mass(n, self.log_q), binv_bound(n, self.p)),
            |c| (c.unseen, c.binv_bound),
        )
    }

    /// [`sampled_pair`] with the pair's `seen = 1 − q^(k+k_up)` already
    /// known ([`PacketTable::seen`]): the same draws and the same result.
    pub fn sampled_pair<R: Rng>(&self, rng: &mut R, k: u64, k_up: u64, seen: f64) -> (u64, u64) {
        let p = self.p;
        let down_seen = self.seen(k);
        if down_seen >= seen || rng.gen::<f64>() * seen < down_seen {
            let d = nonzero_given(rng, k, p, down_seen, self.nonzero_bound(k));
            (d, binomial_given(rng, k_up, p, || self.binv_start(k_up)))
        } else {
            let up_seen = self.seen(k_up);
            (
                0,
                nonzero_given(rng, k_up, p, up_seen, self.nonzero_bound(k_up)),
            )
        }
    }
}

/// Packet counts of a request/response pair whose downstream size is
/// the continuous draw `x`: `k = max(round(x), 2)` (a TCP flow carries
/// at least SYN + data) and `k_up = max(⌊k/2⌋, 2)`.
#[inline]
pub fn pair_packets(x: f64) -> (u64, u64) {
    let k = x.round().max(2.0) as u64;
    (k, (k / 2).max(2))
}

/// One request/response pair that a 1-in-N packet sampler sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledPair {
    /// True downstream packets `k` (see [`pair_packets`]).
    pub packets: u64,
    /// True upstream packets `k_up`.
    pub upstream_packets: u64,
    /// Sampled downstream packets `d`.
    pub sampled: u64,
    /// Sampled upstream packets `u`; `d + u ≥ 1`.
    pub upstream_sampled: u64,
}

/// 1-in-N packet sampling applied at generation, for request/response
/// pairs whose downstream size is log-normal: `X ~ LN(ln median, σ)`,
/// packet counts by [`pair_packets`], each packet of either direction
/// sampled independently with probability `p = 1/N`.
///
/// A pair is seen when the sampler keeps any of its `k + k_up` packets,
/// with probability `s(k) = 1 − (1−p)^(k+k_up)`. Of `n` pairs,
/// [`thin`](PairThinning::thin) draws exactly the seen ones, in law,
/// without drawing the rest:
///
/// 1. The envelope `b(x) = min(1, p·(1.5x + 5))` bounds `s(k(x))` for
///    every `x > 0` (`k + k_up ≤ 1.5x + 0.75` from four packets up,
///    and `≤ 5` below), and `c = E[b(X)]` has a closed form through
///    lognormal partial moments:
///    `c = 5p·Φ(z*) + 1.5p·e^(μ+σ²/2)·Φ(z*−σ) + Φ(−z*)`, with
///    `x* = (1/p − 5)/1.5` where `b` reaches 1 and `z* = (ln x* − μ)/σ`.
/// 2. Candidates: `m ~ Bin(n, c)`, each with size `X` from `f·b/c` — a
///    three-part mixture of `LN(μ, σ)` below `x*`, the size-biased
///    `LN(μ+σ², σ)` below `x*`, and `LN(μ, σ)` above `x*`.
/// 3. Each candidate is kept with probability `s(k)/b(X)`, so the kept
///    count is Bin(n, E[s(k)]) and the kept sizes follow `f·s / E[s]`.
/// 4. A kept pair draws its sampled counts with [`sampled_pair`].
///
/// At `N ≤ 5` the envelope is 1 (`x* ≤ 0`): every pair is a candidate,
/// and at `N = 1` every pair is kept with all its packets.
///
/// Steps 3 and 4 need `1 − q^(k+k_up)`, `1 − qᵏ`, `q^(k_up)` and two
/// restart bounds per candidate, all functions of integer packet counts
/// and `p` alone. [`thin`](PairThinning::thin) computes them inline;
/// [`thin_with`](PairThinning::thin_with) reads them from a
/// [`PacketTable`] built once per interval, with the same draws and the
/// same results. Both compute `s(k)` once per candidate and pass it on
/// to the pair sampler, and both start the candidate count's BINV from
/// `ln(1 − c)` kept here.
#[derive(Debug, Clone, Copy)]
pub struct PairThinning {
    mu: f64,
    sigma: f64,
    p: f64,
    log_q: f64,
    /// The cut `z* = (ln x* − μ)/σ` between the two lower mixture parts
    /// and the upper one (−∞: no lower part).
    z_star: f64,
    /// Mixture weights, cumulative: part A, A + B, A + B + C (= c).
    w_a: f64,
    w_ab: f64,
    c: f64,
    /// `ln(1 − c)`, from which BINV starts the candidate count.
    ln_1m_c: f64,
}

impl PairThinning {
    /// The thinning of `LN(ln median, sigma)`-sized pairs under 1-in-`interval`
    /// packet sampling (`interval` is clamped to ≥ 1).
    pub fn new(median: f64, sigma: f64, interval: u32) -> Self {
        let n = f64::from(interval.max(1));
        let p = 1.0 / n;
        let mu = median.ln();
        let log_q = (-p).ln_1p();
        let x_star = (n - 5.0) / 1.5;
        if x_star <= 0.0 {
            return PairThinning {
                mu,
                sigma,
                p,
                log_q,
                z_star: f64::NEG_INFINITY,
                w_a: 0.0,
                w_ab: 0.0,
                c: 1.0,
                ln_1m_c: f64::NEG_INFINITY,
            };
        }
        let z_star = (x_star.ln() - mu) / sigma;
        let w_a = 5.0 * p * normal_cdf(z_star);
        let w_b = 1.5 * p * (mu + 0.5 * sigma * sigma).exp() * normal_cdf(z_star - sigma);
        let w_c = normal_cdf(-z_star);
        let c = w_a + w_b + w_c;
        PairThinning {
            mu,
            sigma,
            p,
            log_q,
            z_star,
            w_a,
            w_ab: w_a + w_b,
            c,
            ln_1m_c: (1.0 - c).ln(),
        }
    }

    /// `c = E[b(X)]`: the chance that a pair becomes a candidate.
    pub fn candidate_probability(&self) -> f64 {
        self.c
    }

    /// `s(k) = 1 − (1−p)^(k+k_up)`: the chance a `k`-packet pair is seen.
    pub fn seen_probability(&self, k: u64, k_up: u64) -> f64 {
        seen_mass(k + k_up, self.log_q)
    }

    /// The envelope `b(x) = min(1, p·(1.5x + 5))`.
    pub fn envelope(&self, x: f64) -> f64 {
        (self.p * (1.5 * x + 5.0)).min(1.0)
    }

    /// Draws one candidate size `X ~ f·b/c`.
    fn candidate_size<R: Rng>(&self, normals: &mut NormalCache, rng: &mut R) -> f64 {
        let pick = rng.gen::<f64>() * self.c;
        let (shift, z) = if pick < self.w_a {
            (0.0, normal_below(normals, rng, self.z_star))
        } else if pick < self.w_ab {
            let s2 = self.sigma * self.sigma;
            (s2, normal_below(normals, rng, self.z_star - self.sigma))
        } else {
            (0.0, normal_above(normals, rng, self.z_star))
        };
        (self.mu + shift + self.sigma * z).exp()
    }

    /// Draws one candidate and keeps it with probability `s(k)/b(X)`:
    /// the kept pair with its sampled counts, or `None`.
    fn thin_candidate<R: Rng>(
        &self,
        packets: &PacketTable,
        normals: &mut NormalCache,
        rng: &mut R,
    ) -> Option<SampledPair> {
        let x = self.candidate_size(normals, rng);
        let (k, k_up) = pair_packets(x);
        let seen = packets.seen(k + k_up);
        let envelope = self.envelope(x);
        if seen < envelope && rng.gen::<f64>() * envelope >= seen {
            return None;
        }
        let (sampled, upstream_sampled) = packets.sampled_pair(rng, k, k_up, seen);
        Some(SampledPair {
            packets: k,
            upstream_packets: k_up,
            sampled,
            upstream_sampled,
        })
    }

    /// Thins `n` pairs: draws `m ~ Bin(n, c)` candidates and passes each
    /// kept pair to `keep`, in draw order. Returns `m`. Every constant
    /// is computed inline (see [`thin_with`](PairThinning::thin_with)).
    pub fn thin<R: Rng>(
        &self,
        normals: &mut NormalCache,
        rng: &mut R,
        n: u64,
        keep: impl FnMut(&mut R, SampledPair),
    ) -> u64 {
        let packets = PacketTable::inline(self.p, self.log_q);
        self.thin_with(&packets, normals, rng, n, keep)
    }

    /// [`thin`](PairThinning::thin) with the per-packet-count constants
    /// read from `packets`, a [`PacketTable`] of this thinning's
    /// interval: the same draws and the same pairs.
    ///
    /// # Panics
    ///
    /// If `packets` was built for another sampling interval.
    pub fn thin_with<R: Rng>(
        &self,
        packets: &PacketTable,
        normals: &mut NormalCache,
        rng: &mut R,
        n: u64,
        mut keep: impl FnMut(&mut R, SampledPair),
    ) -> u64 {
        assert!(
            packets.p == self.p,
            "packet table of p = {} used to thin at p = {}",
            packets.p,
            self.p
        );
        let candidates = binomial_given(rng, n, self.c, || {
            ((n as f64 * self.ln_1m_c).exp(), binv_bound(n, self.c))
        });
        for _ in 0..candidates {
            if let Some(pair) = self.thin_candidate(packets, normals, rng) {
                keep(rng, pair);
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mean_var(draws: &[f64]) -> (f64, f64) {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut f = 1.0f64;
        for k in 1..=30u64 {
            f *= k as f64;
            let got = ln_gamma(k as f64 + 1.0);
            assert!(
                (got - f.ln()).abs() < 1e-10,
                "ln_gamma({}) = {got}, want {}",
                k + 1,
                f.ln()
            );
        }
        // Half-integer anchor: Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn poisson_zero_and_negative() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn poisson_moments_across_both_regimes() {
        // Mean and variance equal the parameter on both sides of the
        // inversion/PTRS cutoff (Poisson: mean = var = λ).
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for lam in [0.1f64, 2.0, 8.0, 12.0, 40.0, 300.0] {
            let n = 60_000;
            let draws: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lam) as f64).collect();
            let (mean, var) = mean_var(&draws);
            let se = (lam / n as f64).sqrt();
            assert!(
                (mean - lam).abs() < 5.0 * se.max(1e-3),
                "λ={lam}: mean {mean}"
            );
            assert!((var - lam).abs() / lam < 0.06, "λ={lam}: var {var}");
        }
    }

    #[test]
    fn poisson_tail_matches_exact_pmf() {
        // P(X ≥ 20 | λ=10) ≈ 0.00345 — a tail the old clamped-normal
        // approximation visibly distorts; the exact sampler must not.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let n = 200_000u32;
        let hits = (0..n).filter(|_| poisson(&mut rng, 10.0) >= 20).count();
        let frac = hits as f64 / f64::from(n);
        assert!(
            (frac - 0.003_45).abs() < 0.000_6,
            "tail mass {frac}, want ≈0.00345"
        );
    }

    #[test]
    fn poisson_continuous_across_cutoff() {
        // Distributions at λ just below and above the cutoff must not
        // jump: compare P(X ≤ 9) to the exact CDF on both sides.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for (lam, want) in [(9.9f64, 0.470_5f64), (10.1, 0.445_5)] {
            let n = 150_000u32;
            let hits = (0..n).filter(|_| poisson(&mut rng, lam) <= 9).count();
            let got = hits as f64 / f64::from(n);
            assert!((got - want).abs() < 0.006, "λ={lam}: P(X≤9) = {got}");
        }
    }

    #[test]
    fn binomial_degenerate_cases() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, -0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(binomial(&mut rng, 100, 1.5), 100);
    }

    #[test]
    fn binomial_moments_across_all_paths() {
        // (n, p) chosen to cover BINV, BTPE, and the mirrored p > 0.5
        // variants of both. Binomial: mean = np, var = npq.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (n, p) in [
            (20u64, 0.1f64),    // BINV
            (20, 0.9),          // mirrored BINV
            (64, 0.5),          // BTPE at the old Bernoulli-loop edge
            (10_000, 0.01),     // BTPE, small p
            (10_000, 0.99),     // mirrored BTPE
            (1_000_000, 0.001), // old normal-approx regime, now exact
        ] {
            let trials = 40_000;
            let draws: Vec<f64> = (0..trials)
                .map(|_| binomial(&mut rng, n, p) as f64)
                .collect();
            let (mean, var) = mean_var(&draws);
            let want_mean = n as f64 * p;
            let want_var = n as f64 * p * (1.0 - p);
            let se = (want_var / trials as f64).sqrt();
            assert!(
                (mean - want_mean).abs() < 5.0 * se.max(1e-3),
                "n={n} p={p}: mean {mean}, want {want_mean}"
            );
            assert!(
                (var - want_var).abs() / want_var < 0.06,
                "n={n} p={p}: var {var}, want {want_var}"
            );
        }
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for _ in 0..20_000 {
            assert!(binomial(&mut rng, 50, 0.97) <= 50);
            assert!(binomial(&mut rng, 3, 0.5) <= 3);
        }
    }

    #[test]
    fn binomial_section2_phenomenon_shape() {
        // The paper's §2 limitation, as a distribution fact: a
        // 10-packet flow under 1-in-1000 random sampling is observed
        // with probability 1-(1-1/1000)^10 ≈ 0.995 %, and conditional
        // on being seen shows ~1.004 packets.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let n = 400_000u32;
        let mut seen = 0u32;
        let mut seen_packets = 0u64;
        for _ in 0..n {
            let k = binomial(&mut rng, 10, 0.001);
            if k > 0 {
                seen += 1;
                seen_packets += k;
            }
        }
        let frac = f64::from(seen) / f64::from(n);
        assert!(
            (frac - 0.009_95).abs() < 0.000_8,
            "P(seen) = {frac}, want ≈0.00995"
        );
        let avg = seen_packets as f64 / f64::from(seen.max(1));
        assert!(avg < 1.02, "E[packets | seen] = {avg}, want ≈1.004");
    }

    #[test]
    fn binomial_tail_matches_exact_mass() {
        // P(X ≥ 5 | n=1000, p=1/1000) ≈ 0.00364 (≈ Poisson(1) tail).
        // The Bernoulli loop got this right and the sampler swap must
        // keep it right.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let n = 300_000u32;
        let hits = (0..n)
            .filter(|_| binomial(&mut rng, 1000, 0.001) >= 5)
            .count();
        let frac = hits as f64 / f64::from(n);
        assert!(
            (frac - 0.003_64).abs() < 0.000_7,
            "tail mass {frac}, want ≈0.00364"
        );
    }

    #[test]
    fn normal_cache_moments_and_pairing() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut cache = NormalCache::new();
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| cache.standard_normal(&mut rng)).collect();
        let (mean, var) = mean_var(&draws);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        // Paired variates are independent: lag-1 autocorrelation ≈ 0.
        let cov: f64 = draws.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (n as f64 - 1.0);
        assert!(cov.abs() < 0.02, "lag-1 autocovariance {cov}");
    }

    #[test]
    fn normal_cache_halves_uniform_consumption() {
        // Two cached draws must consume exactly one Box–Muller pair:
        // the RNG position after 2 cached normals equals the position
        // after 2 manual uniform draws.
        let mut a = ChaCha8Rng::seed_from_u64(32);
        let mut cache = NormalCache::new();
        let _ = cache.standard_normal(&mut a);
        let _ = cache.standard_normal(&mut a);
        let mut b = ChaCha8Rng::seed_from_u64(32);
        let _: f64 = b.gen_range(f64::EPSILON..1.0);
        let _: f64 = b.gen();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG streams aligned");
    }

    #[test]
    fn log_normal_median_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let n = 50_000;
        let mut draws: Vec<f64> = (0..n).map(|_| log_normal(&mut rng, 20.0, 0.8)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[n / 2];
        assert!((median - 20.0).abs() / 20.0 < 0.05, "median {median}");
    }

    #[test]
    fn map_bits_covers_range_uniformly() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 16u32;
        let mut counts = [0u32; 16];
        let trials = 160_000;
        for _ in 0..trials {
            let v = map_bits_u32(rng.gen::<u32>(), n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        let expect = trials as f64 / f64::from(n);
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) - expect).abs() < 5.0 * expect.sqrt(),
                "bucket {i}: {c} vs {expect}"
            );
        }
        // Endpoints map correctly.
        assert_eq!(map_bits_u32(0, 100), 0);
        assert_eq!(map_bits_u32(u32::MAX, 100), 99);
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let draw_all = |seed: u64| -> (Vec<u64>, Vec<u64>, Vec<u64>) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p: Vec<u64> = (0..100)
                .map(|i| poisson(&mut rng, 0.5 + i as f64))
                .collect();
            let b: Vec<u64> = (0..100).map(|i| binomial(&mut rng, 10 + i, 0.3)).collect();
            let m: Vec<u64> = (0..100)
                .map(|_| u64::from(map_bits_u32(rng.gen(), 1000)))
                .collect();
            (p, b, m)
        };
        assert_eq!(draw_all(7), draw_all(7));
        assert_ne!(draw_all(7), draw_all(8));
    }

    // ── Sampling at generation: exact-arithmetic pins ──────────────

    /// χ² critical value at the 0.999 quantile (Wilson–Hilferty).
    fn chi2_critical(dof: usize) -> f64 {
        let v = dof as f64;
        let z = 3.090_232;
        v * (1.0 - 2.0 / (9.0 * v) + z * (2.0 / (9.0 * v)).sqrt()).powi(3)
    }

    /// Goodness of fit of `observed` against cell probabilities `probs`;
    /// `observed` has one more cell, the draws outside the `probs`
    /// cells, which expects the mass `probs` leaves out. Adjacent cells
    /// are pooled until each expects ≥ 5. Returns (χ², degrees of
    /// freedom).
    fn chi2_gof(observed: &[u64], probs: &[f64]) -> (f64, usize) {
        assert_eq!(observed.len(), probs.len() + 1);
        let t = observed.iter().sum::<u64>() as f64;
        let rest = (1.0 - probs.iter().sum::<f64>()).max(0.0);
        let cells: Vec<(f64, f64)> = observed
            .iter()
            .zip(probs.iter().chain([&rest]))
            .map(|(&o, &p)| (o as f64, p * t))
            .collect();
        let mut pooled: Vec<(f64, f64)> = Vec::new();
        let mut acc = (0.0, 0.0);
        for (o, e) in cells {
            acc = (acc.0 + o, acc.1 + e);
            if acc.1 >= 5.0 {
                pooled.push(acc);
                acc = (0.0, 0.0);
            }
        }
        if let Some(last) = pooled.last_mut() {
            *last = (last.0 + acc.0, last.1 + acc.1);
        }
        let stat = pooled.iter().map(|(o, e)| (o - e) * (o - e) / e).sum();
        (stat, pooled.len() - 1)
    }

    /// Two-sample χ² homogeneity of histograms `a` and `b` (cells pooled
    /// until each holds ≥ 10 of both samples together).
    fn chi2_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
        let (ta, tb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
        let mut pooled: Vec<(f64, f64)> = Vec::new();
        let mut acc = (0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            acc = (acc.0 + x as f64, acc.1 + y as f64);
            if acc.0 + acc.1 >= 10.0 {
                pooled.push(acc);
                acc = (0.0, 0.0);
            }
        }
        if let Some(last) = pooled.last_mut() {
            *last = (last.0 + acc.0, last.1 + acc.1);
        }
        let (ra, rb) = ((tb / ta).sqrt(), (ta / tb).sqrt());
        let stat = pooled
            .iter()
            .map(|(x, y)| (x * ra - y * rb).powi(2) / (x + y))
            .sum();
        (stat, pooled.len() - 1)
    }

    /// Exact Binomial(n, p) pmf at `i`, in logs.
    fn binomial_pmf(n: u64, p: f64, i: u64) -> f64 {
        let (nf, f) = (n as f64, i as f64);
        (ln_gamma(nf + 1.0) - ln_gamma(f + 1.0) - ln_gamma(nf - f + 1.0)
            + f * p.ln()
            + (nf - f) * (-p).ln_1p())
        .exp()
    }

    #[test]
    fn erfc_and_normal_cdf_match_reference_values() {
        // Reference values: erfc/Φ from the C library's double-precision
        // erfc (glibc), to the last printed digit.
        for (x, want) in [
            (0.1, 0.887_537_083_981_715_2),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (1.9999, 0.004_679_802_092_970_608),
            (2.0, 0.004_677_734_981_047_265),
            (2.0001, 0.004_675_668_695_803_339_4),
            (3.0, 2.209_049_699_858_543_8e-5),
            (5.0, 1.537_459_794_428_035_1e-12),
            (10.0, 2.088_487_583_762_545e-45),
            (-1.0, 1.842_700_792_949_715),
        ] {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-13,
                "erfc({x}) = {got:e}, want {want:e}"
            );
        }
        for (x, want) in [
            (-7.0, 1.279_812_543_885_835e-12),
            (-5.0, 2.866_515_718_791_946e-7),
            (-3.0, 0.001_349_898_031_630_095_7),
            (-1.0, 0.158_655_253_931_457_07),
            (1.96, 0.975_002_104_851_779_5),
            (4.66, 0.999_998_418_953_081_1),
        ] {
            let got = normal_cdf(x);
            assert!(
                ((got - want) / want).abs() < 1e-13,
                "Φ({x}) = {got:e}, want {want:e}"
            );
        }
        assert_eq!(erfc(0.0), 1.0);
        assert!(erfc(f64::NAN).is_nan());
        for x in [0.3f64, 1.2, 2.5, 4.0] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn normal_cdf_matches_quadrature_of_the_density() {
        // Independent of any reference table: composite Simpson over the
        // density on [x − 14, x] (the mass below x − 14 is < 1e-40 of Φ).
        let phi = |z: f64| (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        for x in [-7.5f64, -5.0, -3.3, -1.5, -0.4, 0.0, 0.9, 2.2] {
            let (lo, steps) = (x - 14.0, 28_000usize);
            let h = (x - lo) / steps as f64;
            let mut sum = phi(lo) + phi(x);
            for i in 1..steps {
                let w = if i % 2 == 1 { 4.0 } else { 2.0 };
                sum += w * phi(lo + i as f64 * h);
            }
            let quad = sum * h / 3.0;
            let got = normal_cdf(x);
            assert!(
                ((got - quad) / quad).abs() < 1e-10,
                "Φ({x}) = {got:e}, quadrature {quad:e}"
            );
        }
    }

    #[test]
    fn truncated_normals_respect_their_bounds_and_law() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let mut normals = NormalCache::new();
        // P(Z ≥ a + 0.5 | Z ≥ a) = Φ(−a − 0.5)/Φ(−a) on both algorithms.
        for a in [-1.0f64, 0.0, 0.8, 2.5, 4.7] {
            let n = 60_000;
            let mut far = 0u32;
            for _ in 0..n {
                let z = normal_above(&mut normals, &mut rng, a);
                assert!(z >= a);
                if z >= a + 0.5 {
                    far += 1;
                }
            }
            let want = normal_cdf(-a - 0.5) / normal_cdf(-a);
            let got = f64::from(far) / f64::from(n);
            let se = (want * (1.0 - want) / f64::from(n)).sqrt();
            assert!((got - want).abs() < 5.0 * se, "a={a}: {got} vs {want}");
            let z = normal_below(&mut normals, &mut rng, -a);
            assert!(z < -a);
        }
    }

    #[test]
    fn binomial_nonzero_matches_the_zero_truncated_pmf() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        // Inversion ((1−p)ⁿ > ½) and redraw (≤ ½) regimes.
        for (n, p) in [
            (3u64, 0.001f64),
            (20, 0.01),
            (500, 0.001),
            (2_000, 0.001),
            (40, 0.3),
        ] {
            let trials = 80_000;
            let cap = 12usize;
            let mut counts = vec![0u64; cap + 1];
            for _ in 0..trials {
                let x = binomial_nonzero(&mut rng, n, p);
                assert!((1..=n).contains(&x));
                counts[(x as usize).min(cap)] += 1;
            }
            let mass = -(n as f64 * (-p).ln_1p()).exp_m1();
            let probs: Vec<f64> = (1..cap as u64)
                .map(|i| {
                    if i <= n {
                        binomial_pmf(n, p, i) / mass
                    } else {
                        0.0
                    }
                })
                .collect();
            let (stat, dof) = chi2_gof(&counts[1..], &probs);
            assert!(
                dof == 0 || stat < chi2_critical(dof),
                "n={n} p={p}: χ²={stat:.1} on {dof} dof"
            );
        }
        assert_eq!(binomial_nonzero(&mut rng, 7, 1.0), 7);
    }

    #[test]
    fn sampled_pair_matches_the_conditioned_joint() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        for (k, k_up, p) in [
            (16u64, 8u64, 0.001f64),
            (3, 2, 0.001),
            (40, 20, 0.01),
            (5, 2, 0.5),
            (300, 150, 0.01),
        ] {
            let log_q = (-p).ln_1p();
            let seen = -((k + k_up) as f64 * log_q).exp_m1();
            let cap = 4u64;
            // Joint cells (d, u) for d, u < cap, row-major; mass beyond
            // the caps is the χ² rest cell.
            let mut counts = vec![0u64; (cap * cap) as usize];
            let trials = 60_000;
            let mut beyond = 0u64;
            for _ in 0..trials {
                let (d, u) = sampled_pair(&mut rng, k, k_up, p, log_q);
                assert!(d + u >= 1 && d <= k && u <= k_up);
                if d < cap && u < cap {
                    counts[(d * cap + u) as usize] += 1;
                } else {
                    beyond += 1;
                }
            }
            let probs: Vec<f64> = (0..cap * cap)
                .map(|cell| {
                    let (d, u) = (cell / cap, cell % cap);
                    if d + u == 0 || d > k || u > k_up {
                        0.0
                    } else {
                        binomial_pmf(k, p, d) * binomial_pmf(k_up, p, u) / seen
                    }
                })
                .collect();
            counts.push(beyond);
            let (stat, dof) = chi2_gof(&counts[1..], &probs[1..]);
            assert!(
                dof == 0 || stat < chi2_critical(dof),
                "k={k} k_up={k_up} p={p}: χ²={stat:.1} on {dof} dof"
            );
        }
        // p = 1: the whole pair, no draw.
        let mut a = ChaCha8Rng::seed_from_u64(54);
        assert_eq!(sampled_pair(&mut a, 9, 4, 1.0, f64::NEG_INFINITY), (9, 4));
        assert_eq!(a.gen::<u64>(), ChaCha8Rng::seed_from_u64(54).gen::<u64>());
    }

    #[test]
    fn packet_table_entries_equal_their_inline_expressions() {
        // The oracles are the expressions the pair sampler evaluated
        // inline before the table, written out again here.
        for interval in [1u32, 2, 7, 10, 100, 1000, 10_000] {
            let table = PacketTable::new(interval);
            let p = 1.0 / f64::from(interval);
            let log_q = (-p).ln_1p();
            let tabled = (0..PACKET_TABLE_LEN).chain([
                PACKET_TABLE_LEN,
                PACKET_TABLE_LEN + 1,
                2 * PACKET_TABLE_LEN + 7,
                1 << 20,
            ]);
            for n in tabled {
                let nf = n as f64;
                let np = nf * p;
                let seen = -(nf * log_q).exp_m1();
                let unseen = (nf * log_q).exp();
                let nonzero = (1.0 + np + 10.0 * (np * (1.0 - p) + 1.0).sqrt()).min(nf) as u64;
                let q = 1.0 - p;
                let binv = (np + 10.0 * (np * q + 1.0).sqrt()).min(nf) as u64;
                let what = format!("1:{interval}, n = {n}");
                assert_eq!(table.seen(n).to_bits(), seen.to_bits(), "{what}");
                let (start, bound) = table.binv_start(n);
                assert_eq!(start.to_bits(), unseen.to_bits(), "{what}");
                assert_eq!(bound, binv, "{what}");
                assert_eq!(table.nonzero_bound(n), nonzero, "{what}");
            }
            assert_eq!(table.entries.len() as u64, PACKET_TABLE_LEN);
        }
    }

    #[test]
    fn tabled_pair_sampler_draws_like_the_inline_one() {
        // Random (k, k_up, interval, seed): the same pair and the same
        // next draw, tabled counts and counts past the table alike.
        let mut meta = ChaCha8Rng::seed_from_u64(59);
        let tables = [10u32, 100, 1000].map(|i| (i, PacketTable::new(i)));
        let mut past_table = 0;
        for _ in 0..120_000 {
            let (interval, table) = &tables[map_bits_u32(meta.gen(), 3) as usize];
            // Log-uniform over 1..2^12, so both ends are well covered.
            let k = (2f64.powf(12.0 * meta.gen::<f64>()) as u64).max(1);
            let k_up = u64::from(map_bits_u32(meta.gen(), k as u32 + 1));
            past_table += u32::from(k + k_up >= PACKET_TABLE_LEN);
            let seed = meta.gen::<u64>();
            let p = 1.0 / f64::from(*interval);
            let mut inline = ChaCha8Rng::seed_from_u64(seed);
            let mut tabled = inline.clone();
            let want = sampled_pair(&mut inline, k, k_up, p, (-p).ln_1p());
            let got = table.sampled_pair(&mut tabled, k, k_up, table.seen(k + k_up));
            assert_eq!(got, want, "1:{interval} k={k} k_up={k_up} seed {seed}");
            assert_eq!(
                tabled.gen::<u64>(),
                inline.gen::<u64>(),
                "1:{interval} k={k} k_up={k_up} seed {seed}: RNG streams aligned"
            );
        }
        assert!(past_table > 10_000, "{past_table} pairs past the table");
    }

    #[test]
    fn thinning_with_the_table_draws_like_the_inline_thinning() {
        for (median, sigma, interval) in [
            (16.0f64, 0.8f64, 1000u32),
            (40.0, 0.8, 1000),
            (20.0, 1.2, 100),
            (24.0, 1.0, 10),
            (16.0, 0.8, 3),
        ] {
            let t = PairThinning::new(median, sigma, interval);
            let table = PacketTable::new(interval);
            for (seed, n) in [(60u64, 1u64), (61, 37), (62, 900), (63, 40_000)] {
                let run = |tabled: bool| {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut normals = NormalCache::new();
                    let mut kept = Vec::new();
                    let keep = |_: &mut ChaCha8Rng, pair| kept.push(pair);
                    let candidates = if tabled {
                        t.thin_with(&table, &mut normals, &mut rng, n, keep)
                    } else {
                        t.thin(&mut normals, &mut rng, n, keep)
                    };
                    (candidates, kept, rng.gen::<u64>())
                };
                let inline = run(false);
                assert!(inline.0 > 0 || n < 100, "1:{interval} n={n}: no candidate");
                assert_eq!(run(true), inline, "median {median} 1:{interval} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "packet table")]
    fn thinning_rejects_a_table_of_another_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        PairThinning::new(16.0, 0.8, 1000).thin_with(
            &PacketTable::new(100),
            &mut NormalCache::new(),
            &mut rng,
            10,
            |_, _| {},
        );
    }

    /// P(k) for `k = max(round(X), 2)`, `X ~ LN(ln median, σ)`.
    fn size_pmf(median: f64, sigma: f64, k: u64) -> f64 {
        let cdf = |x: f64| normal_cdf((x.ln() - median.ln()) / sigma);
        if k == 2 {
            cdf(2.5)
        } else {
            cdf(k as f64 + 0.5) - cdf(k as f64 - 0.5)
        }
    }

    #[test]
    fn candidate_probability_equals_the_envelope_mean() {
        // c's closed form against Simpson quadrature of E[b(X)] over the
        // normal variable (fine steps absorb the kink at z*).
        for (median, sigma, interval) in [
            (16.0f64, 0.8f64, 1000u32),
            (20.0, 1.2, 1000),
            (24.0, 1.0, 100),
            (56.0, 0.8, 10),
        ] {
            let t = PairThinning::new(median, sigma, interval);
            let phi = |z: f64| (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
            let f = |z: f64| phi(z) * t.envelope((median.ln() + sigma * z).exp());
            let steps = 400_000usize;
            let (lo, hi) = (-12.0f64, 12.0f64);
            let h = (hi - lo) / steps as f64;
            let mut sum = f(lo) + f(hi);
            for i in 1..steps {
                sum += if i % 2 == 1 { 4.0 } else { 2.0 } * f(lo + i as f64 * h);
            }
            let quad = sum * h / 3.0;
            let c = t.candidate_probability();
            assert!(
                ((c - quad) / quad).abs() < 1e-7,
                "median {median} σ {sigma} 1:{interval}: c = {c}, quadrature {quad}"
            );
        }
        assert_eq!(PairThinning::new(16.0, 0.8, 1).candidate_probability(), 1.0);
        assert_eq!(PairThinning::new(16.0, 0.8, 4).candidate_probability(), 1.0);
    }

    #[test]
    fn envelope_bounds_the_seen_probability() {
        for interval in [6u32, 10, 100, 1000, 10_000] {
            let t = PairThinning::new(16.0, 0.8, interval);
            let mut x = 0.01;
            while x < 5e4 {
                let (k, k_up) = pair_packets(x);
                assert!(
                    t.seen_probability(k, k_up) <= t.envelope(x) * (1.0 + 1e-12),
                    "1:{interval} x={x}"
                );
                x *= 1.01;
            }
        }
    }

    #[test]
    fn kept_sizes_follow_the_tilted_law() {
        // Kept pairs: count ~ Bin(n, Σ P(k)·s(k)), sizes P(k)·s(k)/Σ P(k)·s(k).
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        for (median, sigma, interval, n) in [
            (16.0f64, 0.8f64, 1000u32, 1_500_000u64),
            (20.0, 1.2, 1000, 1_000_000),
            (24.0, 1.0, 100, 150_000),
        ] {
            let t = PairThinning::new(median, sigma, interval);
            let cap = 400u64;
            let mut counts = vec![0u64; cap as usize + 1];
            let mut kept = 0u64;
            let mut normals = NormalCache::new();
            let candidates = t.thin(&mut normals, &mut rng, n, |_, pair| {
                kept += 1;
                counts[pair.packets.min(cap) as usize] += 1;
            });
            let tilted: Vec<f64> = (0..=200_000u64)
                .map(|k| {
                    if k < 2 {
                        0.0
                    } else {
                        size_pmf(median, sigma, k) * t.seen_probability(k, (k / 2).max(2))
                    }
                })
                .collect();
            let mean_seen: f64 = tilted.iter().sum();
            let want_kept = n as f64 * mean_seen;
            assert!(
                (kept as f64 - want_kept).abs() < 5.0 * want_kept.sqrt(),
                "median {median} 1:{interval}: kept {kept}, want {want_kept:.0}"
            );
            let want_cand = n as f64 * t.candidate_probability();
            assert!((candidates as f64 - want_cand).abs() < 5.0 * want_cand.sqrt());
            let probs: Vec<f64> = (2..cap).map(|k| tilted[k as usize] / mean_seen).collect();
            let (stat, dof) = chi2_gof(&counts[2..], &probs);
            assert!(
                stat < chi2_critical(dof),
                "median {median} 1:{interval}: χ²={stat:.1} on {dof} dof"
            );
        }
    }

    /// Histograms a thinning run is compared on.
    #[derive(Default)]
    struct Seen {
        pairs: u64,
        size: Vec<u64>,
        down: Vec<u64>,
        up: Vec<u64>,
        joint: Vec<u64>,
    }

    impl Seen {
        fn note(&mut self, k: u64, d: u64, u: u64) {
            let bump = |h: &mut Vec<u64>, i: usize| {
                if h.len() <= i {
                    h.resize(i + 1, 0);
                }
                h[i] += 1;
            };
            self.pairs += 1;
            bump(&mut self.size, (63 - k.leading_zeros()) as usize);
            bump(&mut self.down, d.min(5) as usize);
            bump(&mut self.up, u.min(5) as usize);
            bump(&mut self.joint, (d.min(3) * 4 + u.min(3)) as usize);
        }
    }

    fn same_len(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let n = a.len().max(b.len());
        let pad = |h: &[u64]| {
            let mut v = h.to_vec();
            v.resize(n, 0);
            v
        };
        (pad(a), pad(b))
    }

    #[test]
    fn thinning_matches_brute_force_per_flow_sampling() {
        for (median, sigma, interval, flows) in [
            (16.0f64, 0.8f64, 1000u32, 800_000u64),
            (20.0, 1.2, 1000, 600_000),
            (16.0, 0.8, 100, 100_000),
            (20.0, 1.2, 100, 80_000),
        ] {
            let p = 1.0 / f64::from(interval);
            // Reference: every flow drawn, both directions sampled.
            let mut rng = ChaCha8Rng::seed_from_u64(56);
            let mut normals = NormalCache::new();
            let mut brute = Seen::default();
            for _ in 0..flows {
                let x = normals.log_normal(&mut rng, median, sigma);
                let (k, k_up) = pair_packets(x);
                let d = binomial(&mut rng, k, p);
                let u = binomial(&mut rng, k_up, p);
                if d + u >= 1 {
                    brute.note(k, d, u);
                }
            }
            // Sampling at generation.
            let mut rng = ChaCha8Rng::seed_from_u64(57);
            let mut normals = NormalCache::new();
            let mut thinned = Seen::default();
            PairThinning::new(median, sigma, interval).thin(
                &mut normals,
                &mut rng,
                flows,
                |_, s| {
                    assert_eq!((s.packets / 2).max(2), s.upstream_packets);
                    thinned.note(s.packets, s.sampled, s.upstream_sampled)
                },
            );
            let (a, b) = (brute.pairs as f64, thinned.pairs as f64);
            assert!(
                (a - b).abs() < 5.0 * (a + b).sqrt(),
                "median {median} 1:{interval}: kept {a} brute vs {b} thinned"
            );
            for (what, x, y) in [
                ("true size", &brute.size, &thinned.size),
                ("sampled down", &brute.down, &thinned.down),
                ("sampled up", &brute.up, &thinned.up),
                ("(d, u) joint", &brute.joint, &thinned.joint),
            ] {
                let (x, y) = same_len(x, y);
                let (stat, dof) = chi2_two_sample(&x, &y);
                assert!(
                    stat < chi2_critical(dof),
                    "median {median} 1:{interval} {what}: χ²={stat:.1} on {dof} dof"
                );
            }
        }
    }

    #[test]
    fn unsampled_thinning_keeps_every_flow_whole() {
        let mut rng = ChaCha8Rng::seed_from_u64(58);
        let mut normals = NormalCache::new();
        let mut kept = 0u64;
        let t = PairThinning::new(16.0, 0.8, 1);
        let candidates = t.thin(&mut normals, &mut rng, 5_000, |_, s| {
            kept += 1;
            assert_eq!(
                (s.sampled, s.upstream_sampled),
                (s.packets, s.upstream_packets)
            );
        });
        assert_eq!((candidates, kept), (5_000, 5_000));
    }
}
