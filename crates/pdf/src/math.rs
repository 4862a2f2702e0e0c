//! Special functions and basic numerics.
//!
//! Everything here is self-contained (no external math crates are available
//! offline). Accuracy targets: ~1e-12 for `ln_gamma`/`erf`, which is far
//! below the 1e-6 tolerances the PCR computation needs.

/// Natural log of the Gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Valid for `x > 0`; relative error below ~2e-10 over that range.
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
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise (Numerical Recipes style).
pub fn gammp(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gammp domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

fn gamma_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Error function, via `erf(x) = P(1/2, x²)` for `x >= 0` and oddness.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gammp(0.5, x * x)
    } else {
        -gammp(0.5, x * x)
    }
}

/// Standard normal CDF Φ.
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Fast error function (Abramowitz & Stegun 7.1.26, |ε| < 1.5e-7).
///
/// Used in tabulation loops (a Con-Gau unit marginal samples it ~10³
/// times, once per distinct `(D, r/σ)` shape) where the incomplete-gamma
/// `erf` would dominate; 1.5e-7 is far below the grid error of the
/// tabulation itself.
pub fn erf_fast(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Fast chi-squared CDF for the low degrees of freedom the marginal slice
/// masses need (closed forms + [`erf_fast`]); falls back to the exact
/// [`chi2_cdf`] for other `dof`.
pub fn chi2_cdf_fast(dof: usize, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    match dof {
        1 => erf_fast((x / 2.0).sqrt()),
        2 => 1.0 - (-x / 2.0).exp(),
        3 => {
            let u = x.sqrt();
            erf_fast(u / std::f64::consts::SQRT_2)
                - (2.0 / std::f64::consts::PI).sqrt() * u * (-x / 2.0).exp()
        }
        _ => chi2_cdf(dof, x),
    }
}

/// CDF of the chi-squared distribution with `dof` degrees of freedom.
///
/// Used for the mass an isotropic d-dim Gaussian places inside a ball:
/// `P(||X|| <= w) = chi2_cdf(d, (w/σ)²)` for `X ~ N(0, σ²·I_d)`.
pub fn chi2_cdf(dof: usize, x: f64) -> f64 {
    debug_assert!(dof >= 1);
    if x <= 0.0 {
        return 0.0;
    }
    gammp(dof as f64 / 2.0, x / 2.0)
}

/// Memoizing front-end to [`chi2_cdf`], bit-identical to the plain call.
///
/// The Con-Gau normalisation λ = `chi2_cdf(D, (r/σ)²)` is a function of
/// two values that are constant per object, yet the scalar density path
/// historically re-evaluated the incomplete-gamma series on every one of
/// the n₁ Monte-Carlo samples. A dataset has very few distinct `(r/σ)`
/// ratios (the paper fixes σ = r/2), so a tiny move-to-front cache turns
/// almost every lookup into a slice scan. Thread-local, so no locking on
/// the query path.
pub fn chi2_cdf_cached(dof: usize, x: f64) -> f64 {
    use std::cell::RefCell;
    const CAP: usize = 32;
    thread_local! {
        static CACHE: RefCell<Vec<((usize, u64), f64)>> = const { RefCell::new(Vec::new()) };
    }
    let key = (dof, x.to_bits());
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
            let hit = cache.remove(pos);
            let v = hit.1;
            cache.insert(0, hit);
            return v;
        }
        let v = chi2_cdf(dof, x);
        cache.insert(0, (key, v));
        cache.truncate(CAP);
        v
    })
}

/// Volume of the unit ball in `d` dimensions (`v₀=1, v₁=2, v_d = v_{d-2}·2π/d`).
///
/// Low dimensions (the only ones an index instantiates) come from a
/// once-computed table filled by the same recursion, so the hot density
/// path pays a load instead of a call chain; the values are identical
/// bit-for-bit to the direct recursion.
pub fn unit_ball_volume(d: usize) -> f64 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; 9]> = OnceLock::new();
    if d <= 8 {
        return TABLE.get_or_init(|| {
            let mut t = [0.0; 9];
            for (i, v) in t.iter_mut().enumerate() {
                *v = unit_ball_volume_uncached(i);
            }
            t
        })[d];
    }
    unit_ball_volume_uncached(d)
}

fn unit_ball_volume_uncached(d: usize) -> f64 {
    match d {
        0 => 1.0,
        1 => 2.0,
        _ => unit_ball_volume_uncached(d - 2) * 2.0 * std::f64::consts::PI / d as f64,
    }
}

/// Adaptive Simpson quadrature of `f` on `[a, b]` to absolute tolerance `tol`.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> f64 {
    let c = 0.5 * (a + b);
    let fa = f(a);
    let fb = f(b);
    let fc = f(c);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb);
    simpson_rec(f, a, b, fa, fb, fc, whole, tol, 50)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fb: f64,
    fc: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> f64 {
    let c = 0.5 * (a + b);
    let d = 0.5 * (a + c);
    let e = 0.5 * (c + b);
    let fd = f(d);
    let fe = f(e);
    let left = (c - a) / 6.0 * (fa + 4.0 * fd + fc);
    let right = (b - c) / 6.0 * (fc + 4.0 * fe + fb);
    if depth == 0 || (left + right - whole).abs() <= 15.0 * tol {
        left + right + (left + right - whole) / 15.0
    } else {
        simpson_rec(f, a, c, fa, fc, fd, left, tol * 0.5, depth - 1)
            + simpson_rec(f, c, b, fc, fb, fe, right, tol * 0.5, depth - 1)
    }
}

/// Finds `t` in `[lo, hi]` with `f(t) ≈ target` for a monotone
/// non-decreasing `f`, to absolute x-tolerance `xtol`.
///
/// Clamps to the interval ends when the target lies outside `f`'s range,
/// which is the right behaviour for CDF inversion (probabilities 0 and 1 map
/// to the support boundary).
pub fn bisect_monotone<F: Fn(f64) -> f64>(f: &F, lo: f64, hi: f64, target: f64, xtol: f64) -> f64 {
    debug_assert!(lo <= hi);
    let mut a = lo;
    let mut b = hi;
    if f(a) >= target {
        return a;
    }
    if f(b) <= target {
        return b;
    }
    while b - a > xtol {
        let mid = 0.5 * (a + b);
        if f(mid) < target {
            a = mid;
        } else {
            b = mid;
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(1/2)=√π
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_symmetry_and_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((std_normal_cdf(1.96) - 0.975_002_104_851_78).abs() < 1e-8);
        for z in [-2.5, -1.0, 0.3, 1.7] {
            let s = std_normal_cdf(z) + std_normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-12, "symmetry broken at {z}");
        }
    }

    #[test]
    fn chi2_cdf_closed_forms() {
        // dof=2: P = 1 - exp(-x/2)
        for x in [0.1, 1.0, 4.0, 9.0] {
            let expect = 1.0 - (-x / 2.0f64).exp();
            assert!((chi2_cdf(2, x) - expect).abs() < 1e-12, "dof=2 at {x}");
        }
        // dof=1: P = erf(sqrt(x/2))
        for x in [0.5, 2.0, 6.0] {
            let expect = erf((x / 2.0f64).sqrt());
            assert!((chi2_cdf(1, x) - expect).abs() < 1e-12, "dof=1 at {x}");
        }
        // dof=3: P = erf(u/√2) - sqrt(2/π)·u·exp(-u²/2), u = sqrt(x)
        for x in [0.5f64, 2.0, 6.0] {
            let u = x.sqrt();
            let expect = erf(u / std::f64::consts::SQRT_2)
                - (2.0 / std::f64::consts::PI).sqrt() * u * (-u * u / 2.0).exp();
            assert!((chi2_cdf(3, x) - expect).abs() < 1e-10, "dof=3 at {x}");
        }
    }

    #[test]
    fn erf_fast_tracks_erf() {
        for x in [-3.0, -1.2, -0.4, 0.0, 0.3, 0.9, 1.8, 3.5] {
            assert!(
                (erf_fast(x) - erf(x)).abs() < 2e-7,
                "erf_fast({x}) = {} vs {}",
                erf_fast(x),
                erf(x)
            );
        }
    }

    #[test]
    fn chi2_fast_tracks_exact() {
        for dof in [1usize, 2, 3, 5] {
            for x in [0.2, 1.0, 3.0, 8.0] {
                assert!(
                    (chi2_cdf_fast(dof, x) - chi2_cdf(dof, x)).abs() < 5e-7,
                    "dof={dof} x={x}"
                );
            }
        }
    }

    #[test]
    fn unit_ball_volumes() {
        let pi = std::f64::consts::PI;
        assert!((unit_ball_volume(2) - pi).abs() < 1e-12);
        assert!((unit_ball_volume(3) - 4.0 * pi / 3.0).abs() < 1e-12);
        assert!((unit_ball_volume(4) - pi * pi / 2.0).abs() < 1e-12);
    }

    #[test]
    fn simpson_integrates_polynomials_exactly() {
        let f = |x: f64| 3.0 * x * x; // ∫₀¹ = 1
        assert!((adaptive_simpson(&f, 0.0, 1.0, 1e-12) - 1.0).abs() < 1e-10);
        let g = |x: f64| x.sin();
        assert!((adaptive_simpson(&g, 0.0, std::f64::consts::PI, 1e-12) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simpson_handles_gaussian_mass() {
        let sigma = 2.0;
        let g = |x: f64| {
            (-x * x / (2.0 * sigma * sigma)).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
        };
        let mass = adaptive_simpson(&g, -8.0 * sigma, 8.0 * sigma, 1e-12);
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_finds_quantile() {
        let f = |x: f64| x * x; // monotone on [0, 2]
        let t = bisect_monotone(&f, 0.0, 2.0, 2.0, 1e-12);
        assert!((t - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_clamps_out_of_range_targets() {
        let f = |x: f64| x;
        assert_eq!(bisect_monotone(&f, 0.0, 1.0, -5.0, 1e-12), 0.0);
        assert_eq!(bisect_monotone(&f, 0.0, 1.0, 5.0, 1e-12), 1.0);
    }
}
