//! EFPA — Enhanced Fourier Perturbation Algorithm (Ács, Castelluccia,
//! Chen; ICDM 2012).
//!
//! EFPA transforms the 1-D data vector with the discrete Fourier
//! transform, keeps only the `k` lowest-frequency bins, perturbs them with
//! Laplace noise, and inverts the transform. Dropping high frequencies
//! trades approximation error (the discarded tail energy, exactly
//! quantified by Parseval's theorem) against noise (the sensitivity of the
//! retained coefficients grows with `k`). The cut-off `k` is chosen
//! **privately** with the exponential mechanism using half the budget; the
//! other half measures the retained coefficients.
//!
//! Conjugate symmetry of real-input spectra is preserved, so bin `j`
//! carries coefficients `F_j` and `F_{n−j}`; measuring one of the pair
//! determines both.
//!
//! EFPA is consistent (Theorem 2: as ε → ∞ the exponential mechanism picks
//! the full spectrum and the noise vanishes) and scale-ε exchangeable
//! (Theorem 9).

use dpbench_core::mechanism::{DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::{BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload};
use dpbench_transforms::fft::{dft_real, idft_real, Complex};
use rand::RngCore;

/// The EFPA mechanism (1-D, power-of-two domains).
#[derive(Debug, Clone, Copy, Default)]
pub struct Efpa;

impl Efpa {
    /// Create an EFPA instance.
    pub fn new() -> Self {
        Self
    }
}

impl Mechanism for Efpa {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("EFPA", DimSupport::OneD);
        info.data_dependent = true;
        info
    }

    fn supports(&self, domain: &Domain) -> bool {
        matches!(domain, Domain::D1(n) if n.is_power_of_two())
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: "EFPA".into(),
                reason: format!("domain {domain} must be a 1-D power of two"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("EFPA"),
            move |x, _ws, budget, rng| mech.perturb_spectrum(x, budget, rng),
        ))
    }
}

impl Efpa {
    /// The private pipeline: choose `k` (ε₁) then measure the retained
    /// coefficients (ε₂).
    fn perturb_spectrum(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let eps1 = budget.spend_fraction_as("choose-k", 0.5)?;
        let eps2 = budget.spend_all_as("coefficients");

        let spectrum = dft_real(x.counts());
        let half = n / 2;

        // Energy per frequency bin: bin 0 = DC; bins 1..half pair F_j with
        // its conjugate F_{n−j}; bin `half` is the (real) Nyquist term.
        let mut bin_energy = vec![0.0; half + 1];
        bin_energy[0] = spectrum[0].norm_sq();
        for j in 1..half {
            bin_energy[j] = spectrum[j].norm_sq() + spectrum[n - j].norm_sq();
        }
        bin_energy[half] = spectrum[half].norm_sq();

        // Suffix sums: tail(k) = energy dropped when keeping bins < k.
        let mut tail = vec![0.0; half + 2];
        for j in (0..=half).rev() {
            tail[j] = tail[j + 1] + bin_energy[j];
        }

        // EM over k ∈ [1, half+1]: score = −RMSE estimate (count units).
        // Following Ács et al., the score sensitivity is bounded by 1 (one
        // record shifts the total spectrum energy by O(1) per Parseval).
        let scores: Vec<f64> = (1..=half + 1)
            .map(|k| {
                let noise = noise_energy(n, k, eps2);
                -((tail[k] + noise) / n as f64).sqrt()
            })
            .collect();
        let k = 1 + exponential_mechanism(&scores, 1.0, eps1, rng);

        // Measure bins 0..k with Laplace noise at the joint sensitivity.
        let lambda = sensitivity(k) / eps2;
        let mut noisy = vec![Complex::default(); n];
        noisy[0] = Complex::real(spectrum[0].re + laplace(lambda, rng));
        for j in 1..k.min(half) {
            let re = spectrum[j].re + laplace(lambda, rng);
            let im = spectrum[j].im + laplace(lambda, rng);
            noisy[j] = Complex::new(re, im);
            noisy[n - j] = noisy[j].conj();
        }
        if k == half + 1 {
            noisy[half] = Complex::real(spectrum[half].re + laplace(lambda, rng));
        }
        Ok(idft_real(&noisy))
    }
}

/// L1 sensitivity of the measured coefficient vector when keeping `k`
/// bins: the DC term moves by at most 1; each retained conjugate pair
/// contributes |Δre| + |Δim| ≤ √2.
fn sensitivity(k: usize) -> f64 {
    1.0 + std::f64::consts::SQRT_2 * (k.saturating_sub(1)) as f64
}

/// Expected spectral noise energy injected when measuring `k` bins with
/// budget ε₂ (each Laplace sample has variance 2λ²; paired bins mirror the
/// noise into their conjugates).
fn noise_energy(_n: usize, k: usize, eps2: f64) -> f64 {
    let lambda = sensitivity(k) / eps2;
    let var = 2.0 * lambda * lambda;
    // DC: 1 real component. Pairs: 2 components each, mirrored ×2.
    var + (k.saturating_sub(1) as f64) * 4.0 * var
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Loss, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn consistent_at_high_eps() {
        let counts: Vec<f64> = (0..64).map(|i| ((i * 17) % 23) as f64 * 5.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(80);
        let est = Efpa::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn smooth_data_is_compressible() {
        // A single broad bump: few Fourier coefficients carry the energy,
        // so EFPA at moderate ε should do far better than per-cell noise.
        let n = 256;
        let counts: Vec<f64> = (0..n)
            .map(|i| 1000.0 * (-((i as f64 - 128.0) / 40.0).powi(2)).exp())
            .collect();
        let x = DataVector::new(counts, Domain::D1(n));
        let w = Workload::identity(Domain::D1(n));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(81);
        let mut efpa_err = 0.0;
        let mut id_err = 0.0;
        for _ in 0..10 {
            let est = Efpa::new().run_eps(&x, &w, 0.1, &mut rng).unwrap();
            efpa_err += Loss::L2.eval(&y, &w.evaluate_cells(&est));
            let id = crate::identity::Identity
                .run_eps(&x, &w, 0.1, &mut rng)
                .unwrap();
            id_err += Loss::L2.eval(&y, &w.evaluate_cells(&id));
        }
        assert!(
            efpa_err < id_err,
            "EFPA {efpa_err} should beat IDENTITY {id_err} on smooth data"
        );
    }

    #[test]
    fn sensitivity_grows_with_k() {
        assert_eq!(sensitivity(1), 1.0);
        assert!(sensitivity(10) > sensitivity(2));
    }

    #[test]
    fn noise_energy_monotone_in_k() {
        let a = noise_energy(64, 2, 1.0);
        let b = noise_energy(64, 20, 1.0);
        assert!(b > a);
    }

    #[test]
    fn output_is_real_and_finite() {
        let x = DataVector::new(vec![3.0; 128], Domain::D1(128));
        let w = Workload::identity(Domain::D1(128));
        let mut rng = StdRng::seed_from_u64(82);
        let est = Efpa::new().run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 128);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_2d_and_non_pow2() {
        assert!(!Efpa::new().supports(&Domain::D2(8, 8)));
        assert!(!Efpa::new().supports(&Domain::D1(100)));
    }
}
