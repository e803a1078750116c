//! Cooperative multi-sensor fusion.
//!
//! The paper motivates CFD via Cabric et al.'s cognitive-radio survey,
//! where the answer to low-SNR *shadowing* is cooperation: N spatially
//! separated sensors, each behind its own channel realisation, fuse their
//! verdicts or statistics so that one obstructed link no longer blinds
//! the network. This module is that layer:
//!
//! * [`FusionRule`] — how member decisions combine: hard `OR` / `AND` /
//!   `k`-of-`N` voting over member verdicts, or soft combining (member
//!   test statistics are summed and compared against one fleet
//!   threshold);
//! * [`MemberChannel`] — the per-sensor impairment overlay (shadowing,
//!   fading, interference) each member sees on top of the common
//!   observation;
//! * [`FusionCenter`] — the fleet itself. It implements [`SensingBackend`],
//!   so a fused fleet drops into `SweepBuilder` sweeps and
//!   [`SensingScheduler`](crate::service::SensingScheduler) channels
//!   exactly like a single detector, and it is `Clone + Send + Sync`, so
//!   it is its own [`BackendRecipe`].
//!
//! ## Determinism
//!
//! Sweep workers evaluate trials in arbitrary order on independently
//! built replicas, so per-sensor impairment realisations must not depend
//! on call order. The fusion center therefore derives the impairment seed
//! from a fingerprint of the observation's samples: the same observation
//! always meets the same per-sensor realisations, on any replica, under
//! any worker count — which keeps fused sweeps bit-identical to serial
//! ones under common random numbers.
//!
//! ## Example
//!
//! ```
//! use cfd_core::fusion::{FusionCenter, FusionRule};
//! use cfd_core::backend::{Observation, SensingBackend};
//! use cfd_dsp::detector::CyclostationaryDetector;
//! use cfd_dsp::scf::ScfParams;
//! use cfd_dsp::signal::{SignalBuilder, SymbolModulation};
//!
//! # fn main() -> Result<(), cfd_core::error::CfdError> {
//! let params = ScfParams::new(32, 7, 16)?;
//! let mut fleet = FusionCenter::new(FusionRule::KOfN(2));
//! for _ in 0..3 {
//!     fleet = fleet.with_member(CyclostationaryDetector::new(params.clone(), 0.35, 1)?);
//! }
//! let samples = SignalBuilder::new(params.samples_needed())
//!     .modulation(SymbolModulation::Bpsk)
//!     .samples_per_symbol(8)
//!     .snr_db(10.0)
//!     .seed(5)
//!     .build()
//!     .map_err(cfd_core::error::CfdError::Dsp)?
//!     .samples;
//! let mut observation = Observation::from_samples(samples);
//! let decision = fleet.decide(&mut observation)?;
//! // 3 clean members agree; the fused statistic is the vote count.
//! assert_eq!(decision.statistic, 3.0);
//! assert!(decision.is_signal());
//! # Ok(())
//! # }
//! ```

use crate::backend::{BackendRecipe, Decision, Observation, SensingBackend};
use crate::error::CfdError;
use cfd_dsp::complex::Cplx;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Cached handles to the `fusion.*` instruments. Counters are always
/// live; the `fusion.decide_ns` histogram fills only while telemetry is
/// enabled (its timer no-ops otherwise).
struct FusionInstruments {
    decide_ns: cfd_telemetry::Histogram,
    decisions: cfd_telemetry::Counter,
    member_decisions: cfd_telemetry::Counter,
    split_votes: cfd_telemetry::Counter,
}

fn instruments() -> &'static FusionInstruments {
    static INSTRUMENTS: OnceLock<FusionInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| FusionInstruments {
        decide_ns: cfd_telemetry::histogram("fusion.decide_ns"),
        decisions: cfd_telemetry::counter("fusion.decisions"),
        member_decisions: cfd_telemetry::counter("fusion.member_decisions"),
        split_votes: cfd_telemetry::counter("fusion.split_votes"),
    })
}

/// How a [`FusionCenter`] combines its members' decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusionRule {
    /// Declare the band occupied if *any* member does — `KOfN(1)`. The
    /// most shadowing-tolerant rule (one unobstructed sensor suffices)
    /// at the cost of the highest fleet false-alarm rate.
    Or,
    /// Declare the band occupied only if *every* member does — `KOfN(N)`.
    And,
    /// Declare the band occupied if at least `k` members do.
    KOfN(usize),
    /// Soft combining: sum the members' test statistics (for CFD members,
    /// their cyclic-profile feature statistics) and compare the sum
    /// against one fleet-level threshold. Uses per-sensor confidence
    /// instead of binary votes, at the cost of shipping statistics rather
    /// than single bits to the fusion center.
    SoftCombine {
        /// Threshold on the summed statistic.
        threshold: f64,
    },
}

impl FusionRule {
    /// Votes needed to declare the band occupied under a hard rule, for a
    /// fleet of `members` sensors (`None` for soft combining).
    pub fn votes_needed(&self, members: usize) -> Option<usize> {
        match self {
            FusionRule::Or => Some(1),
            FusionRule::And => Some(members),
            FusionRule::KOfN(k) => Some(*k),
            FusionRule::SoftCombine { .. } => None,
        }
    }

    /// Short stable tag for labels: `or`, `and`, `2of3`, `soft`.
    fn tag(&self, members: usize) -> String {
        match self {
            FusionRule::Or => "or".into(),
            FusionRule::And => "and".into(),
            FusionRule::KOfN(k) => format!("{k}of{members}"),
            FusionRule::SoftCombine { .. } => "soft".into(),
        }
    }

    fn validate(&self, members: usize) -> Result<(), CfdError> {
        if members == 0 {
            return Err(CfdError::InvalidParameter {
                name: "members",
                message: "a fusion center needs at least one member sensor".into(),
            });
        }
        match self {
            FusionRule::KOfN(k) => {
                if *k == 0 || *k > members {
                    return Err(CfdError::InvalidParameter {
                        name: "k",
                        message: format!("k-of-N needs 1 <= k <= {members}, got {k}"),
                    });
                }
            }
            FusionRule::SoftCombine { threshold } => {
                if !threshold.is_finite() {
                    return Err(CfdError::InvalidParameter {
                        name: "threshold",
                        message: format!("must be finite, got {threshold}"),
                    });
                }
            }
            FusionRule::Or | FusionRule::And => {}
        }
        Ok(())
    }
}

/// The impairment closure a [`MemberChannel`] applies:
/// `(samples, seed) -> impaired samples`, deterministic in its arguments.
type ImpairFn = dyn Fn(&[Cplx], u64) -> Vec<Cplx> + Send + Sync;

/// The impairment overlay between the common observation and one member
/// sensor: a deterministic function of `(samples, seed)` producing what
/// that sensor actually receives.
///
/// The seed passed in is derived by the fusion center from the
/// observation's content and the member index (see the module docs), so
/// realisations are independent across members but reproducible across
/// replicas and worker counts. `cfd-scenario`'s `ChannelPipeline::impair`
/// plugs in directly:
///
/// ```ignore
/// let overlay = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
///     sigma_db: 8.0,
///     noise_power: 1.0,
/// }]);
/// let channel = MemberChannel::new(move |samples, seed| {
///     overlay.impair(samples.to_vec(), seed).expect("validated overlay")
/// });
/// ```
#[derive(Clone, Default)]
pub struct MemberChannel {
    /// `None` means the member sees the shared observation unimpaired
    /// (and shares its cached spectra with every other clean member).
    inner: Option<Arc<ImpairFn>>,
}

impl MemberChannel {
    /// A perfect channel: the member senses the common observation
    /// directly. Clean members share the observation's spectra caches, so
    /// a roster of clean CFD members costs one FFT pass per decision.
    pub fn clean() -> Self {
        MemberChannel { inner: None }
    }

    /// A channel applying `impair(samples, seed)` to the common
    /// observation. The closure must be deterministic in its arguments.
    pub fn new(impair: impl Fn(&[Cplx], u64) -> Vec<Cplx> + Send + Sync + 'static) -> Self {
        MemberChannel {
            inner: Some(Arc::new(impair)),
        }
    }

    /// Whether this is the clean (identity) channel.
    pub fn is_clean(&self) -> bool {
        self.inner.is_none()
    }
}

impl fmt::Debug for MemberChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemberChannel")
            .field("clean", &self.is_clean())
            .finish()
    }
}

/// One member sensor: the recipe its replicas are built from, plus its
/// channel overlay.
#[derive(Clone)]
struct Member {
    recipe: Arc<dyn BackendRecipe + Send + Sync>,
    channel: MemberChannel,
}

/// Per-replica mutable state: the built member backends and one scratch
/// observation per impaired member (reused across decisions so spectra
/// buffers amortise like a single sensor's).
#[derive(Default)]
struct ReplicaState {
    replicas: Vec<Box<dyn SensingBackend + Send>>,
    scratch: Vec<Observation>,
}

/// A fleet of member sensors fused into one [`SensingBackend`].
///
/// Members are added with [`FusionCenter::with_member`] (clean channel)
/// or [`FusionCenter::with_impaired_member`]; each is any
/// [`BackendRecipe`], so heterogeneous software/SoC fleets compose
/// freely. Member replicas are built lazily on the first decision of each
/// fusion replica and reused afterwards.
///
/// `FusionCenter` is `Clone + Send + Sync` and therefore its own
/// [`BackendRecipe`]: pass it straight to `SweepBuilder::backend` or a
/// `ChannelSubscription`.
pub struct FusionCenter {
    rule: FusionRule,
    members: Vec<Member>,
    state: Mutex<ReplicaState>,
}

impl FusionCenter {
    /// A fusion center with no members yet; add at least one before
    /// deciding.
    pub fn new(rule: FusionRule) -> Self {
        FusionCenter {
            rule,
            members: Vec::new(),
            state: Mutex::new(ReplicaState::default()),
        }
    }

    /// Adds a member sensing the common observation through a clean
    /// channel (builder style).
    pub fn with_member(self, recipe: impl BackendRecipe + Send + 'static) -> Self {
        self.with_impaired_member(recipe, MemberChannel::clean())
    }

    /// Adds a member behind its own channel overlay (builder style).
    pub fn with_impaired_member(
        mut self,
        recipe: impl BackendRecipe + Send + 'static,
        channel: MemberChannel,
    ) -> Self {
        self.members.push(Member {
            recipe: Arc::new(recipe),
            channel,
        });
        self
    }

    /// The fusion rule.
    pub fn rule(&self) -> &FusionRule {
        &self.rule
    }

    /// Number of member sensors.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The members' recipe labels, in member order.
    pub fn member_labels(&self) -> Vec<String> {
        self.members.iter().map(|m| m.recipe.label()).collect()
    }

    /// Checks the rule against the current member count.
    ///
    /// # Errors
    ///
    /// [`CfdError::InvalidParameter`] for an empty fleet, `k` outside
    /// `1..=N`, or a non-finite soft threshold.
    pub fn validate(&self) -> Result<(), CfdError> {
        self.rule.validate(self.members.len())
    }
}

impl Clone for FusionCenter {
    /// Clones the configuration; the clone builds its own member replicas
    /// on first decision (fusion state is never shared between replicas).
    fn clone(&self) -> Self {
        FusionCenter {
            rule: self.rule,
            members: self.members.clone(),
            state: Mutex::new(ReplicaState::default()),
        }
    }
}

impl fmt::Debug for FusionCenter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusionCenter")
            .field("rule", &self.rule)
            .field("members", &self.member_labels())
            .finish()
    }
}

/// FNV-1a over the raw sample bits: the content fingerprint that anchors
/// per-sensor impairment realisations to the observation itself rather
/// than to call order.
fn sample_fingerprint(samples: &[Cplx]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for sample in samples {
        for bits in [sample.re.to_bits(), sample.im.to_bits()] {
            hash ^= bits;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// SplitMix64 finaliser, mirroring the scenario crate's seed mixing.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SensingBackend for FusionCenter {
    /// `fusion-<rule>(<member labels>)`, e.g. `fusion-2of3(cfd+cfd+cfd)`.
    fn label(&self) -> String {
        format!(
            "fusion-{}({})",
            self.rule.tag(self.members.len()),
            self.member_labels().join("+")
        )
    }

    /// Fans the observation out to every member (through its channel
    /// overlay), then fuses the member decisions under the rule.
    ///
    /// Hard rules report the vote count as the fused statistic against a
    /// threshold of `votes_needed - 0.5`; soft combining reports the
    /// summed member statistic against the fleet threshold. The decision
    /// is timed into the `fusion.decide_ns` histogram while telemetry is
    /// enabled; `fusion.decisions`, `fusion.member_decisions` and
    /// `fusion.split_votes` count always.
    ///
    /// # Errors
    ///
    /// Propagates member build/decision errors and
    /// [`FusionCenter::validate`] failures.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        self.validate()?;
        let _span = instruments().decide_ns.start_timer();
        let members = &self.members;
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        if state.replicas.len() != members.len() {
            state.replicas.clear();
            state.scratch.clear();
            for member in members {
                state.replicas.push(member.recipe.build()?);
                state.scratch.push(Observation::new());
            }
        }
        let fingerprint = sample_fingerprint(observation.samples());
        let mut decisions = Vec::with_capacity(members.len());
        for (index, member) in members.iter().enumerate() {
            let decision = match &member.channel.inner {
                // Clean members share the common observation (and its
                // spectra caches) directly.
                None => state.replicas[index].decide(observation)?,
                Some(impair) => {
                    let seed = mix_seed(fingerprint, 0xF05E_0000 ^ index as u64);
                    let received = impair(observation.samples(), seed);
                    let scratch = &mut state.scratch[index];
                    scratch.set_samples(received);
                    state.replicas[index].decide(scratch)?
                }
            };
            decisions.push(decision);
        }
        instruments().member_decisions.add(decisions.len() as u64);
        instruments().decisions.increment();
        let fused = match self.rule {
            FusionRule::SoftCombine { threshold } => {
                let sum: f64 = decisions.iter().map(|d| d.statistic).sum();
                Decision::new(sum, threshold)
            }
            rule => {
                let votes = decisions.iter().filter(|d| d.is_signal()).count();
                if votes > 0 && votes < decisions.len() {
                    instruments().split_votes.increment();
                }
                let needed = rule
                    .votes_needed(decisions.len())
                    .expect("hard rules define a vote quota");
                Decision::new(votes as f64, needed as f64 - 0.5)
            }
        };
        Ok(fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::CyclostationaryDetector;
    use cfd_dsp::scf::ScfParams;
    use cfd_dsp::signal::{awgn, SignalBuilder, SymbolModulation};

    fn params() -> ScfParams {
        ScfParams::new(32, 7, 16).unwrap()
    }

    fn cfd(threshold: f64) -> CyclostationaryDetector {
        CyclostationaryDetector::new(params(), threshold, 1).unwrap()
    }

    /// Serialises the tests in this module that drive `FusionCenter::decide`:
    /// the `fusion.*` counters are process-global, and
    /// `fusion_counters_accumulate` asserts their exact deltas.
    fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn busy(snr_db: f64, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(params().samples_needed())
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(8)
            .snr_db(snr_db)
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    #[test]
    fn rule_validation() {
        assert!(FusionRule::Or.validate(0).is_err());
        assert!(FusionRule::KOfN(0).validate(3).is_err());
        assert!(FusionRule::KOfN(4).validate(3).is_err());
        assert!(FusionRule::KOfN(3).validate(3).is_ok());
        assert!(FusionRule::SoftCombine {
            threshold: f64::NAN
        }
        .validate(2)
        .is_err());
        let empty = FusionCenter::new(FusionRule::Or);
        assert!(empty.validate().is_err());
    }

    #[test]
    fn hard_rules_count_votes() {
        let _counters = counter_lock();
        // Mixed thresholds make the members disagree on a mid-SNR
        // observation: a permissive, a moderate and an impossible one.
        let fleet = |rule| {
            FusionCenter::new(rule)
                .with_member(cfd(1e-6))
                .with_member(cfd(0.35))
                .with_member(cfd(1e9))
        };
        let mut observation = Observation::from_samples(busy(10.0, 3));
        let or = fleet(FusionRule::Or).decide(&mut observation).unwrap();
        let and = fleet(FusionRule::And).decide(&mut observation).unwrap();
        let two = fleet(FusionRule::KOfN(2)).decide(&mut observation).unwrap();
        // The permissive member always fires; the f64::MAX one never.
        assert!(or.is_signal());
        assert!(!and.is_signal());
        assert_eq!(or.statistic, two.statistic, "same votes, same fleet");
        assert_eq!(or.threshold, 0.5);
        assert_eq!(and.threshold, 2.5);
        assert_eq!(two.threshold, 1.5);
    }

    #[test]
    fn soft_combining_sums_member_statistics() {
        let _counters = counter_lock();
        let mut solo = cfd(0.35);
        let mut observation = Observation::from_samples(busy(8.0, 4));
        let single = solo.decide(&mut observation).unwrap();
        let mut fleet = FusionCenter::new(FusionRule::SoftCombine { threshold: 1.0 })
            .with_member(cfd(0.35))
            .with_member(cfd(0.35));
        let fused = fleet.decide(&mut observation).unwrap();
        // Two clean members of the same configuration see the same
        // observation: the fused statistic is exactly twice the solo one.
        assert!((fused.statistic - 2.0 * single.statistic).abs() < 1e-12);
        assert_eq!(fused.threshold, 1.0);
    }

    #[test]
    fn labels_are_stable_and_descriptive() {
        let fleet = FusionCenter::new(FusionRule::KOfN(2))
            .with_member(cfd(0.35))
            .with_member(cfd(0.35))
            .with_member(cfd(0.35));
        assert_eq!(SensingBackend::label(&fleet), "fusion-2of3(cfd+cfd+cfd)");
        let soft =
            FusionCenter::new(FusionRule::SoftCombine { threshold: 1.0 }).with_member(cfd(0.35));
        assert_eq!(SensingBackend::label(&soft), "fusion-soft(cfd)");
    }

    #[test]
    fn impaired_members_see_deterministic_realisations() {
        let _counters = counter_lock();
        // An overlay that adds seeded noise: the same observation must
        // meet the same realisation on every replica, so decisions agree
        // between a fusion center and its clone (the sweep-worker case).
        let overlay = MemberChannel::new(|samples, seed| {
            let extra = awgn(samples.len(), 0.5, seed);
            samples
                .iter()
                .zip(extra.iter())
                .map(|(&s, &w)| s + w)
                .collect()
        });
        let mut fleet = FusionCenter::new(FusionRule::SoftCombine { threshold: 1.0 })
            .with_impaired_member(cfd(0.35), overlay.clone())
            .with_impaired_member(cfd(0.35), overlay);
        let mut replica = fleet.clone();
        for trial in 0..4 {
            let samples = busy(0.0, 100 + trial);
            let a = fleet
                .decide(&mut Observation::from_samples(samples.clone()))
                .unwrap();
            let b = replica
                .decide(&mut Observation::from_samples(samples))
                .unwrap();
            assert_eq!(a, b, "trial {trial}");
        }
    }

    #[test]
    fn member_realisations_differ_across_members() {
        let _counters = counter_lock();
        // Both members carry the same overlay closure, but their indices
        // salt the seed: a fragile (high-threshold) pair would otherwise
        // always vote identically. Statistics must differ.
        let overlay = MemberChannel::new(|samples, seed| {
            let extra = awgn(samples.len(), 2.0, seed);
            samples
                .iter()
                .zip(extra.iter())
                .map(|(&s, &w)| s + w)
                .collect()
        });
        let mut a = FusionCenter::new(FusionRule::SoftCombine { threshold: 1.0 })
            .with_impaired_member(cfd(0.35), overlay.clone());
        let mut b = FusionCenter::new(FusionRule::SoftCombine { threshold: 1.0 })
            .with_impaired_member(cfd(0.35), MemberChannel::clean())
            .with_impaired_member(cfd(0.35), overlay);
        let samples = busy(0.0, 9);
        let solo = a
            .decide(&mut Observation::from_samples(samples.clone()))
            .unwrap();
        let duo = b.decide(&mut Observation::from_samples(samples)).unwrap();
        // Member index 1's realisation differs from member index 0's, so
        // the impaired statistic inside `duo` is not the solo one.
        assert_ne!(duo.statistic - solo.statistic, solo.statistic);
    }

    #[test]
    fn fusion_center_is_its_own_recipe() {
        fn recipe_label<R: BackendRecipe>(recipe: &R) -> String {
            recipe.label()
        }
        let _counters = counter_lock();
        let fleet = FusionCenter::new(FusionRule::Or)
            .with_member(cfd(0.35))
            .with_member(cfd(0.35));
        assert_eq!(recipe_label(&fleet), "fusion-or(cfd+cfd)");
        let mut replica = BackendRecipe::build(&fleet).unwrap();
        let mut observation = Observation::from_samples(busy(10.0, 5));
        assert!(replica.decide(&mut observation).unwrap().is_signal());
    }

    #[test]
    fn clean_members_share_the_observation_caches() {
        let _counters = counter_lock();
        let mut fleet = FusionCenter::new(FusionRule::And)
            .with_member(cfd(0.2))
            .with_member(cfd(0.3))
            .with_member(cfd(0.4));
        let mut observation = Observation::from_samples(busy(10.0, 6));
        fleet.decide(&mut observation).unwrap();
        // All three members decode from one shared DSCF: a single SCF
        // computation, three profile reads.
        assert_eq!(observation.computed(), 1);
    }

    #[test]
    fn a_member_seeing_a_nan_fails_the_fused_decision() {
        let _counters = counter_lock();
        // One NaN sample makes a member's statistic NaN; the member
        // refuses it and the fleet must surface that error, not a vote.
        let mut fleet = FusionCenter::new(FusionRule::Or)
            .with_member(cfd(0.35))
            .with_member(cfd(0.35));
        let mut samples = busy(10.0, 7);
        samples[5] = Cplx::new(f64::NAN, 0.0);
        let mut observation = Observation::from_samples(samples);
        assert!(matches!(
            fleet.decide(&mut observation),
            Err(CfdError::NonFiniteStatistic { backend: "cfd", .. })
        ));
    }

    #[test]
    fn fusion_counters_accumulate() {
        let _counters = counter_lock();
        let decisions_before = cfd_telemetry::counter("fusion.decisions").value();
        let members_before = cfd_telemetry::counter("fusion.member_decisions").value();
        let mut fleet = FusionCenter::new(FusionRule::Or)
            .with_member(cfd(0.35))
            .with_member(cfd(0.35));
        let mut observation = Observation::from_samples(busy(10.0, 7));
        fleet.decide(&mut observation).unwrap();
        assert_eq!(
            cfd_telemetry::counter("fusion.decisions").value() - decisions_before,
            1
        );
        assert_eq!(
            cfd_telemetry::counter("fusion.member_decisions").value() - members_before,
            2
        );
    }
}
