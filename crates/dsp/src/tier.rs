//! Run-time selection of the widest vector tier the host supports, shared
//! by the FFT ([`crate::fft`]) and the DSCF row kernel ([`crate::scf`]).
//!
//! Each kernel has one `#[inline(always)]` body and thin
//! `#[target_feature]` wrappers that compile it for AVX2 (the FFT) or for
//! AVX2 and AVX-512 (the DSCF kernel).
//! Only those features are enabled — never `fma` — and rustc emits plain
//! IEEE multiplies and adds with no fast-math flags, so every tier
//! performs the same operations in the same order and gives the same
//! bits; the dispatch is purely a throughput choice.

/// A SIMD tier a kernel body can be compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VectorTier {
    Generic,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest vector tier the host supports (the feature-detection macro
/// caches the CPUID probe, so a call is one load and a bit test).
pub(crate) fn vector_tier() -> VectorTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return VectorTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return VectorTier::Avx2;
        }
    }
    VectorTier::Generic
}

/// Every tier the host can run, narrowest first (for tier-equality tests).
#[cfg(test)]
pub(crate) fn supported_tiers() -> Vec<VectorTier> {
    let mut tiers = vec![VectorTier::Generic];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(VectorTier::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            tiers.push(VectorTier::Avx512);
        }
    }
    tiers
}
