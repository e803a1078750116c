//! Cooperative sensing against a *live* primary user.
//!
//! Static Pd/Pfa sweeps answer "how often is one decision right?", but a
//! cognitive radio shares spectrum in time: the licensed user switches on
//! and off, and what matters operationally is how many slots pass before
//! an activation is noticed (detection delay) and how often the secondary
//! transmits over an active primary in the meantime (interference).
//!
//! [`CooperativeSweep`] drives any `BackendRecipe`-built backend — a
//! single detector or a whole [`FusionCenter`](cfd_core::fusion) fleet —
//! along a Markov on/off occupancy trace generated from an
//! [`ActivityModel`], one observation per slot through the scenario's
//! channel, and reports detection delay and interference-to-primary
//! alongside the familiar Pd/Pfa.
//!
//! The secondary's transmit model is sense-then-transmit with a one-slot
//! lag: in slot `t` it transmits iff its most recent completed decision
//! (slot `t - 1`) declared the band idle. Every activation therefore
//! costs at least the burst's first slot in interference — exactly the
//! delay cost static sweeps cannot see.

use crate::error::ScenarioError;
use crate::scenario::{Hypothesis, RadioScenario, TrialDraw};
use crate::service_traffic::{ActivityModel, SplitMix};
use cfd_core::backend::{BackendRecipe, Observation};

/// One cooperative run: a scenario, an occupancy model, and a slot count.
#[derive(Debug, Clone)]
pub struct CooperativeSweep {
    scenario: RadioScenario,
    activity: ActivityModel,
    slots: usize,
    seed: u64,
}

/// What a [`CooperativeSweep::run`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CooperativeReport {
    /// The backend's label.
    pub label: String,
    /// Total slots driven.
    pub slots: usize,
    /// Slots in which the primary user was active.
    pub active_slots: usize,
    /// Number of activation bursts (idle→active transitions, counting a
    /// trace that starts active as one).
    pub bursts: usize,
    /// Bursts with at least one `SignalPresent` decision.
    pub detected_bursts: usize,
    /// Detected active slots / active slots.
    pub pd: f64,
    /// `SignalPresent` decisions on idle slots / idle slots.
    pub pfa: f64,
    /// Mean slots from an activation to its first detection, over
    /// detected bursts (0 = caught in its first slot). `NaN` when no
    /// burst was detected.
    pub mean_detection_delay_slots: f64,
    /// Fraction of active slots in which the secondary transmitted over
    /// the primary (its latest completed decision said "idle").
    pub interference_to_primary: f64,
}

impl CooperativeSweep {
    /// Creates a run description.
    ///
    /// # Errors
    ///
    /// Rejects a zero slot count.
    pub fn new(
        scenario: &RadioScenario,
        activity: ActivityModel,
        slots: usize,
    ) -> Result<Self, ScenarioError> {
        if slots == 0 {
            return Err(ScenarioError::InvalidParameter {
                name: "slots",
                message: "must be at least 1".into(),
            });
        }
        Ok(CooperativeSweep {
            scenario: scenario.clone(),
            activity,
            slots,
            seed: scenario.seed,
        })
    }

    /// Sets the occupancy-trace seed (builder style). Defaults to the
    /// scenario's seed; the trace stream is salted separately from the
    /// observation streams either way.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The Markov on/off occupancy trace this run drives, one flag per
    /// slot. Deterministic per `(activity, slots, seed)`; the initial
    /// state is drawn from the chain's stationary distribution so short
    /// traces are not biased toward the idle start state.
    pub fn occupancy(&self) -> Vec<bool> {
        let mut rng = SplitMix::new(self.seed ^ 0x0CC0_9A4C_E5A1_7EAF);
        let leave_idle = 1.0 - self.activity.stay_idle;
        let leave_active = 1.0 - self.activity.stay_active;
        let stationary_active = if leave_idle + leave_active > 0.0 {
            leave_idle / (leave_idle + leave_active)
        } else {
            // Both states absorbing: split evenly.
            0.5
        };
        let mut active = rng.next_f64() < stationary_active;
        (0..self.slots)
            .map(|_| {
                let now = active;
                let stay = if active {
                    self.activity.stay_active
                } else {
                    self.activity.stay_idle
                };
                if rng.next_f64() >= stay {
                    active = !active;
                }
                now
            })
            .collect()
    }

    /// Runs the trace through one replica built from `recipe` and scores
    /// it.
    ///
    /// Slot `t` reuses the scenario's per-trial seeding with `t` as the
    /// trial index, so the observation stream is reproducible and shares
    /// channel randomness with a static sweep over the same scenario
    /// (common random numbers). Each slot is drawn into one reused
    /// [`TrialDraw`] and written straight into the backend's
    /// [`Observation`]: the samples of [`RadioScenario::observe`], without
    /// its per-slot allocations.
    ///
    /// # Errors
    ///
    /// Propagates replica construction, signal and channel errors.
    pub fn run(&self, recipe: &dyn BackendRecipe) -> Result<CooperativeReport, ScenarioError> {
        let occupancy = self.occupancy();
        let mut backend = recipe.build()?;
        let mut observation = Observation::new();
        let mut draw = TrialDraw::default();
        let mut verdicts = Vec::with_capacity(self.slots);
        for (slot, &active) in occupancy.iter().enumerate() {
            let hypothesis = if active {
                Hypothesis::Occupied
            } else {
                Hypothesis::Vacant
            };
            self.scenario.draw_trial(hypothesis, slot, &mut draw)?;
            observation
                .load_with(|buffer| self.scenario.observe_drawn(&draw, hypothesis, buffer))?;
            let decision = backend.decide(&mut observation)?;
            verdicts.push(decision.is_signal());
        }

        let active_slots = occupancy.iter().filter(|&&a| a).count();
        let idle_slots = self.slots - active_slots;
        let detected_active = occupancy
            .iter()
            .zip(verdicts.iter())
            .filter(|(&a, &v)| a && v)
            .count();
        let false_alarms = occupancy
            .iter()
            .zip(verdicts.iter())
            .filter(|(&a, &v)| !a && v)
            .count();

        // Burst accounting: a burst is a maximal run of active slots; its
        // delay is the offset of the first detected slot inside it.
        let mut bursts = 0;
        let mut detected_bursts = 0;
        let mut delay_sum = 0usize;
        let mut slot = 0;
        while slot < self.slots {
            if occupancy[slot] && (slot == 0 || !occupancy[slot - 1]) {
                bursts += 1;
                let mut t = slot;
                let mut delay = None;
                while t < self.slots && occupancy[t] {
                    if delay.is_none() && verdicts[t] {
                        delay = Some(t - slot);
                    }
                    t += 1;
                }
                if let Some(d) = delay {
                    detected_bursts += 1;
                    delay_sum += d;
                }
                slot = t;
            } else {
                slot += 1;
            }
        }

        // Sense-then-transmit with one slot of lag: the secondary
        // transmits in slot t iff the decision of slot t-1 said idle (and
        // always in slot 0 — it has no decision yet).
        let interfering = occupancy
            .iter()
            .enumerate()
            .filter(|&(t, &a)| a && (t == 0 || !verdicts[t - 1]))
            .count();

        let rate = |n: usize, d: usize| {
            if d == 0 {
                f64::NAN
            } else {
                n as f64 / d as f64
            }
        };
        Ok(CooperativeReport {
            label: recipe.label(),
            slots: self.slots,
            active_slots,
            bursts,
            detected_bursts,
            pd: rate(detected_active, active_slots),
            pfa: rate(false_alarms, idle_slots),
            mean_detection_delay_slots: rate(delay_sum, detected_bursts),
            interference_to_primary: rate(interfering, active_slots),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::CyclostationaryDetector;
    use cfd_dsp::scf::ScfParams;

    fn sweep(slots: usize) -> CooperativeSweep {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed())
            .unwrap()
            .with_seed(11)
            .at_snr(15.0);
        CooperativeSweep::new(&scenario, ActivityModel::bursty(0.8, 0.7).unwrap(), slots).unwrap()
    }

    fn cfd() -> CyclostationaryDetector {
        CyclostationaryDetector::new(ScfParams::new(32, 7, 32).unwrap(), 0.35, 1).unwrap()
    }

    #[test]
    fn occupancy_is_deterministic_and_mixes_states() {
        let s = sweep(400);
        let a = s.occupancy();
        let b = s.occupancy();
        assert_eq!(a, b);
        let active = a.iter().filter(|&&x| x).count();
        // Stationary activity of (0.8, 0.7) is 0.3/(0.3+0.2) = 0.6.
        assert!(active > 400 * 2 / 5 && active < 400 * 4 / 5, "{active}");
        let c = s.clone().with_seed(999).occupancy();
        assert_ne!(a, c);
    }

    #[test]
    fn always_active_and_always_idle_edge_cases() {
        let s = sweep(50);
        let all_on = CooperativeSweep {
            activity: ActivityModel::always_active(),
            ..s.clone()
        };
        assert!(all_on.occupancy().iter().all(|&x| x));
        let all_off = CooperativeSweep {
            activity: ActivityModel::bursty(0.0, 1.0).unwrap(),
            ..s
        };
        assert!(all_off.occupancy().iter().all(|&x| !x));
    }

    #[test]
    fn run_scores_a_detector_on_the_trace() {
        let s = sweep(60);
        let report = s.run(&cfd()).unwrap();
        assert_eq!(report.label, "cfd");
        assert_eq!(report.slots, 60);
        assert_eq!(
            report.active_slots,
            s.occupancy().iter().filter(|&&x| x).count()
        );
        assert!(report.bursts >= 1);
        assert!(report.detected_bursts <= report.bursts);
        // At 15 dB the golden CFD detector sees essentially every burst.
        assert!(report.pd > 0.8, "pd = {}", report.pd);
        assert!(report.pfa < 0.3, "pfa = {}", report.pfa);
        // Interference includes at least the sensing lag of each burst
        // that starts after an idle slot, and never exceeds 1.
        assert!(report.interference_to_primary >= 0.0);
        assert!(report.interference_to_primary <= 1.0);
        assert!(report.mean_detection_delay_slots >= 0.0);
        // Reproducible.
        assert_eq!(s.run(&cfd()).unwrap(), report);
    }

    #[test]
    fn rejects_zero_slots() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed()).unwrap();
        assert!(CooperativeSweep::new(&scenario, ActivityModel::always_active(), 0).is_err());
    }
}
