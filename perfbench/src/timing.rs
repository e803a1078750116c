//! Bench-owned timers around the program's public surfaces.
//!
//! Every layer is timed from outside: [`Timed`] wraps any
//! [`BackendRecipe`] so that each replica it builds records the wall time
//! of every `decide` call. Replicas keep their samples locally and hand
//! them to the shared [`Durations`] when they are dropped, so the hot path
//! takes no lock.

use crate::report::quantile;
use cfd_core::backend::{BackendRecipe, Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanosecond samples merged from many replicas, one chunk per replica:
/// each chunk is a series one thread took in order.
#[derive(Debug, Clone, Default)]
pub struct Durations {
    chunks: Arc<Mutex<Vec<Vec<u64>>>>,
    medians_only: bool,
}

impl Durations {
    /// A collector that keeps only each chunk's median, so the memory it
    /// holds (and the run's peak resident set) does not grow with how much
    /// work the run timed.
    pub fn medians_only() -> Self {
        Durations {
            medians_only: true,
            ..Durations::default()
        }
    }

    /// Appends one chunk (ignored when empty).
    pub fn push_chunk(&self, mut samples: Vec<u64>) {
        if samples.is_empty() {
            return;
        }
        if self.medians_only {
            samples = vec![quantile(&mut samples, 0.5)];
        }
        self.chunks
            .lock()
            .expect("a duration merge never panics")
            .push(samples);
    }

    /// Takes every chunk merged so far, leaving the collector empty.
    pub fn take_chunks(&self) -> Vec<Vec<u64>> {
        std::mem::take(&mut *self.chunks.lock().expect("a duration merge never panics"))
    }

    /// Takes every sample merged so far as one series.
    pub fn take(&self) -> Vec<u64> {
        self.take_chunks().concat()
    }
}

/// Nanoseconds since `start`, saturated to `u64`.
pub fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A recipe whose replicas time every `decide` call into `durations`.
/// The label is the wrapped recipe's, so result tables are unchanged.
#[derive(Clone)]
pub struct Timed {
    inner: Arc<dyn BackendRecipe + Send + Sync>,
    durations: Durations,
}

impl Timed {
    /// Wraps `recipe`; its replicas report into `durations`.
    pub fn new(recipe: impl BackendRecipe + Send + 'static, durations: Durations) -> Self {
        Timed {
            inner: Arc::new(recipe),
            durations,
        }
    }
}

impl BackendRecipe for Timed {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(TimedBackend {
            inner: self.inner.build()?,
            local: Vec::new(),
            durations: self.durations.clone(),
        }))
    }
}

struct TimedBackend {
    inner: Box<dyn SensingBackend + Send>,
    local: Vec<u64>,
    durations: Durations,
}

impl SensingBackend for TimedBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let start = Instant::now();
        let decision = self.inner.decide(observation);
        self.local.push(nanos_since(start));
        decision
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        self.durations.push_chunk(std::mem::take(&mut self.local));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::EnergyDetector;
    use cfd_dsp::signal::awgn;

    #[test]
    fn timed_replicas_report_one_sample_per_decide() {
        let durations = Durations::default();
        let recipe = Timed::new(
            EnergyDetector::new(1.0, 0.05, 64).unwrap(),
            durations.clone(),
        );
        assert_eq!(recipe.label(), "energy");
        {
            let mut replica = recipe.build().unwrap();
            let mut observation = Observation::from_samples(awgn(64, 1.0, 3));
            replica.decide(&mut observation).unwrap();
            replica.decide(&mut observation).unwrap();
            assert!(durations.take().is_empty(), "samples merge on drop");
        }
        assert_eq!(durations.take().len(), 2);
    }
}
