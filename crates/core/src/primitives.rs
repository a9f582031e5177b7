//! Differentially private building blocks: Laplace noise, the Laplace
//! mechanism (Definition 2), the exponential mechanism, and the geometric
//! mechanism. Every algorithm in the benchmark is composed of these.

use rand::Rng;

/// Draw one sample from `Laplace(0, scale)` by inverse-CDF sampling.
///
/// `scale = b` gives variance `2b²`. A `scale` of 0 returns 0 (useful when a
/// mechanism degenerates in the ε → ∞ limit).
pub fn laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(
        scale.is_finite() && scale >= 0.0,
        "invalid Laplace scale {scale}"
    );
    if scale == 0.0 {
        return 0.0;
    }
    // u ∈ (-0.5, 0.5]; the open lower bound avoids ln(0).
    let u: f64 = rng.gen::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
}

/// The Laplace mechanism over a vector-valued function (Definition 2):
/// adds i.i.d. `Laplace(sensitivity/ε)` noise to each coordinate.
pub fn laplace_vec<R: Rng + ?Sized>(
    values: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(epsilon > 0.0, "ε must be positive");
    assert!(sensitivity >= 0.0, "sensitivity must be non-negative");
    let scale = sensitivity / epsilon;
    values.iter().map(|&v| v + laplace(scale, rng)).collect()
}

/// The exponential mechanism: select an index `i` with probability
/// proportional to `exp(ε·score[i] / (2·sensitivity))`.
///
/// Implemented with the Gumbel-max trick, which is numerically stable for
/// large `ε·score` differences (it never exponentiates):
/// `argmaxᵢ(ε·uᵢ/(2Δ) + Gᵢ)` with i.i.d. standard Gumbel noise `Gᵢ` is
/// distributed exactly as the exponential mechanism.
///
/// Returns the index [`exponential_mechanism_naive`] returns and leaves
/// `rng` in the same state: it draws one uniform `u` per candidate, in
/// order, but takes the two logarithms of `G = −ln(−ln u)` only for a
/// candidate that could still win. Since `ln u ≤ u − 1`, `−ln u ≥ 1 − u`
/// and so `G ≤ −ln(1 − u)`. The uniform is a multiple of `2⁻⁵³` in
/// `[0, 1)`, so `1 − u` is computed exactly, and if its binary exponent is
/// `−k` then `1 − u ≥ 2⁻ᵏ` and `G ≤ k·ln 2`. Adding a margin far above
/// libm's few-ulp error in the two logarithms (`|G| < 37`) gives a bound
/// `b ≥ Ĝ` on the computed Gumbel value, and because rounding is monotone,
/// `fl(f·s + b) ≤ best` implies `fl(f·s + Ĝ) ≤ best`: the full loop would
/// not have taken that candidate either. The running time therefore
/// depends on the scores (how many candidates pass the bound), like AHP's
/// and DAWA's already do.
///
/// Higher scores are better. Panics on an empty score slice.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    scores: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> usize {
    let factor = gumbel_max_factor(scores, sensitivity, epsilon);
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let u = positive_uniform(rng);
        let base = factor * s;
        if base + gumbel_bound(u) <= best_val {
            continue;
        }
        let v = base + gumbel_of(u);
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// The reference Gumbel-max loop [`exponential_mechanism`] must match: it
/// computes every candidate's Gumbel value.
pub fn exponential_mechanism_naive<R: Rng + ?Sized>(
    scores: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> usize {
    let factor = gumbel_max_factor(scores, sensitivity, epsilon);
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let v = factor * s + gumbel_of(positive_uniform(rng));
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// Check the exponential mechanism's arguments and return the score
/// factor `ε / (2·sensitivity)`.
fn gumbel_max_factor(scores: &[f64], sensitivity: f64, epsilon: f64) -> f64 {
    assert!(
        !scores.is_empty(),
        "exponential mechanism over empty choice set"
    );
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    assert!(epsilon >= 0.0, "ε must be non-negative");
    epsilon / (2.0 * sensitivity)
}

/// One uniform draw in `(0, 1)`: a multiple of `2⁻⁵³`, or the smallest
/// normal float in place of 0.
#[inline]
fn positive_uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.gen::<f64>().max(f64::MIN_POSITIVE)
}

/// The standard Gumbel(0, 1) sample of uniform `u`.
#[inline]
fn gumbel_of(u: f64) -> f64 {
    -(-u.ln()).ln()
}

/// An upper bound on [`gumbel_of`]`(u)` for a [`positive_uniform`] `u`,
/// read off the exponent of `1 − u` (see [`exponential_mechanism`]). For
/// `u` = `MIN_POSITIVE`, `1 − u` rounds to 1 and the bound is the margin,
/// which still exceeds `gumbel_of(u) ≈ −6.56`.
#[inline]
fn gumbel_bound(u: f64) -> f64 {
    /// Far above the error of the two logarithms (below `10⁻¹⁴`).
    const MARGIN: f64 = 1e-9;
    let k = 1023 - ((1.0 - u).to_bits() >> 52) as i32;
    f64::from(k) * std::f64::consts::LN_2 + MARGIN
}

/// The geometric mechanism: the discrete analogue of Laplace, adding
/// two-sided geometric noise with parameter `α = exp(-ε/sensitivity)`.
/// Returns an integer-valued perturbation of `value`.
pub fn geometric<R: Rng + ?Sized>(value: i64, sensitivity: f64, epsilon: f64, rng: &mut R) -> i64 {
    assert!(epsilon > 0.0 && sensitivity > 0.0);
    let alpha = (-epsilon / sensitivity).exp();
    // Two-sided geometric: difference of two geometric variables, sampled
    // via inverse CDF on each side.
    let side = |rng: &mut R| -> i64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        // P(X >= k) = alpha^k for k = 0,1,2,...
        (u.ln() / alpha.ln()).floor() as i64
    };
    value + side(rng) - side(rng)
}

/// Exact probability vector of the exponential mechanism (for tests and the
/// ε → ∞ consistency analysis): `p_i ∝ exp(ε·u_i/(2Δ))`, computed with the
/// log-sum-exp shift.
pub fn exponential_mechanism_probs(scores: &[f64], sensitivity: f64, epsilon: f64) -> Vec<f64> {
    let factor = epsilon / (2.0 * sensitivity);
    let m = scores
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(factor * b));
    let weights: Vec<f64> = scores.iter().map(|&s| (factor * s - m).exp()).collect();
    let z: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / z).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let b = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| laplace(b, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 2.0 * b * b).abs() < 0.3, "variance {var} ≠ 2b² = 8");
    }

    #[test]
    fn laplace_zero_scale_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(laplace(0.0, &mut rng), 0.0);
    }

    #[test]
    fn laplace_vec_adds_noise_per_coordinate() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = vec![10.0; 1000];
        let noisy = laplace_vec(&v, 1.0, 1.0, &mut rng);
        assert_eq!(noisy.len(), 1000);
        // Mean should stay near 10 and at least some noise must be present.
        let mean = noisy.iter().sum::<f64>() / 1000.0;
        assert!((mean - 10.0).abs() < 0.5);
        assert!(noisy.iter().any(|&x| (x - 10.0).abs() > 1e-6));
    }

    #[test]
    fn exponential_mechanism_prefers_high_scores() {
        let mut rng = StdRng::seed_from_u64(9);
        let scores = [0.0, 0.0, 10.0, 0.0];
        let mut hits = [0usize; 4];
        for _ in 0..2000 {
            hits[exponential_mechanism(&scores, 1.0, 2.0, &mut rng)] += 1;
        }
        // exp(10) dominance: index 2 should win essentially always.
        assert!(hits[2] > 1950, "hits: {hits:?}");
    }

    #[test]
    fn exponential_mechanism_uniform_at_eps_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let scores = [0.0, 5.0, 10.0];
        let mut hits = [0usize; 3];
        for _ in 0..30_000 {
            hits[exponential_mechanism(&scores, 1.0, 0.0, &mut rng)] += 1;
        }
        for &h in &hits {
            let frac = h as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "not uniform: {hits:?}");
        }
    }

    #[test]
    fn exponential_mechanism_matches_exact_probs() {
        let mut rng = StdRng::seed_from_u64(23);
        let scores = [1.0, 2.0, 3.0];
        let probs = exponential_mechanism_probs(&scores, 1.0, 1.5);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let trials = 60_000;
        let mut hits = [0usize; 3];
        for _ in 0..trials {
            hits[exponential_mechanism(&scores, 1.0, 1.5, &mut rng)] += 1;
        }
        for i in 0..3 {
            let emp = hits[i] as f64 / trials as f64;
            assert!(
                (emp - probs[i]).abs() < 0.02,
                "index {i}: empirical {emp} vs exact {}",
                probs[i]
            );
        }
    }

    #[test]
    fn gumbel_bound_covers_every_gumbel_value() {
        let ulp = 1.0 / (1_u64 << 53) as f64;
        // Where 1 − u is a power of two, −ln(1 − u) = k·ln 2 and near
        // u = 1 the Gumbel value is within an ulp of it: only the margin
        // keeps the bound above.
        let edges = (0..=53).flat_map(|k| {
            let w = 1.0 / (1_u64 << k) as f64;
            [1.0 - w, 1.0 - w + ulp, 1.0 - w - ulp]
        });
        let mut rng = StdRng::seed_from_u64(17);
        let draws = (0..100_000).map(|_| positive_uniform(&mut rng));
        for u in [f64::MIN_POSITIVE, ulp, 2.0 * ulp, 0.5]
            .into_iter()
            .chain(edges)
            .chain(draws)
            .filter(|u| (f64::MIN_POSITIVE..1.0).contains(u))
        {
            assert!(gumbel_of(u) <= gumbel_bound(u), "u = {u:e}");
        }
    }

    #[test]
    fn geometric_mechanism_centering() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| geometric(100, 1.0, 1.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty choice set")]
    fn exponential_mechanism_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        exponential_mechanism(&[], 1.0, 1.0, &mut rng);
    }
}
