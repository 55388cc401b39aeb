//! Typed replay-job specifications.
//!
//! A [`JobSpec`] is the one description of "what to replay" shared by
//! the replay drivers: a replay-service client submits it in process,
//! and `dist_run` expands it into a [`SuiteSpec`]. The builder replaces
//! the loose `(workload, scale, lanes, plan, fuel)` tuples that used to
//! be assembled by hand at each call site:
//!
//! ```
//! use loopspec_dist::{JobSpec, Policy};
//!
//! let spec = JobSpec::new("compress")
//!     .policies([Policy::Str, Policy::StrNested(2)])
//!     .tus([4, 16]);
//! assert_eq!(spec.lane_specs().len(), 4); // policies × tus
//! ```
//!
//! ## Content addressing
//!
//! [`JobSpec::fingerprint`] hashes the spec's canonical encoding —
//! **excluding the shard [`Plan`]** — into the 64-bit key the report
//! cache is addressed by. The plan is deliberately left out: the
//! distributed-equivalence suite proves lane reports are byte-identical
//! across every slicing, so two specs that differ only in how the work
//! is cut produce the same report and must hit the same cache line.

use std::fmt;

use loopspec_core::snap::{fnv1a, Enc, SnapError};
use loopspec_cpu::RunLimits;
use loopspec_mt::{Policy, StreamError};
use loopspec_pipeline::Plan;
use loopspec_workloads::Scale;

use crate::coordinator::SuiteSpec;
use crate::wire::{save_scale, save_str, LaneSpec};

/// Why a [`JobSpec`] failed admission ([`JobSpec::validate`]).
///
/// Lane errors come straight from the grid's own TU-range check
/// ([`loopspec_mt::validate_tus`]), so a bad TU count is reported with
/// exactly the text an `EngineGrid` lane constructor panics with;
/// everything else is a codec-style [`SnapError`]. Display forwards
/// the inner message verbatim either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// A non-lane field is invalid (workload name, lane-grid shape,
    /// fuel budget, kernel registry).
    Spec(SnapError),
    /// A lane is invalid (TU count outside the engine's range).
    Lanes(StreamError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec(e) => e.fmt(f),
            JobError::Lanes(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Spec(e) => Some(e),
            JobError::Lanes(e) => Some(e),
        }
    }
}

impl From<SnapError> for JobError {
    fn from(e: SnapError) -> Self {
        JobError::Spec(e)
    }
}

impl From<StreamError> for JobError {
    fn from(e: StreamError) -> Self {
        JobError::Lanes(e)
    }
}

/// A complete, typed description of one replay job: which workload, at
/// what scale, through which (policy × TU) engine grid, under what
/// fuel budget and shard plan. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (`loopspec_workloads::by_name`).
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Policy axis of the lane grid.
    pub policies: Vec<Policy>,
    /// Thread-unit axis of the lane grid.
    pub tus: Vec<u32>,
    /// How the run is cut into snapshot-linked shards. Excluded from
    /// [`JobSpec::fingerprint`] — slicing never changes the report.
    pub plan: Plan,
    /// Total instruction budget.
    pub total_fuel: u64,
    /// Fingerprint of the kernel registry this spec was built against
    /// (see [`loopspec_isa::kernel::registry_fingerprint`]). Part of
    /// the report fingerprint — a `KernelCall`-bearing workload retires
    /// a different instruction stream under a different registry, so
    /// cached reports must never cross kernel-set boundaries — and
    /// checked by [`JobSpec::validate`] so a mismatched spec is
    /// rejected at admission, not detected mid-run.
    pub kernel_registry: u64,
}

impl JobSpec {
    /// A spec for `workload` with the standard defaults: test scale,
    /// the full paper grid (`{Idle, STR, STR(1..=3)} × {2,4,8,16}` —
    /// exactly [`default_lanes`](crate::default_lanes)), 25 k-fuel
    /// sliced shards, and the default CPU fuel budget.
    pub fn new(workload: impl Into<String>) -> Self {
        JobSpec {
            workload: workload.into(),
            scale: Scale::Test,
            policies: Policy::ALL.to_vec(),
            tus: vec![2, 4, 8, 16],
            plan: Plan::sliced(25_000),
            total_fuel: RunLimits::default().max_instrs,
            kernel_registry: loopspec_isa::kernel::registry_fingerprint(),
        }
    }

    /// Sets the workload scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the policy axis of the lane grid.
    pub fn policies(mut self, policies: impl IntoIterator<Item = Policy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Sets the thread-unit axis of the lane grid.
    pub fn tus(mut self, tus: impl IntoIterator<Item = u32>) -> Self {
        self.tus = tus.into_iter().collect();
        self
    }

    /// Sets the shard plan.
    pub fn plan(mut self, plan: Plan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the total instruction budget.
    pub fn total_fuel(mut self, total_fuel: u64) -> Self {
        self.total_fuel = total_fuel;
        self
    }

    /// The lane grid this spec describes: the `tus × policies` cross
    /// product (outer loop over TUs — the
    /// [`default_lanes`](crate::default_lanes) order).
    pub fn lane_specs(&self) -> Vec<LaneSpec> {
        let mut lanes = Vec::with_capacity(self.tus.len() * self.policies.len());
        for &tus in &self.tus {
            for &policy in &self.policies {
                lanes.push(LaneSpec { policy, tus });
            }
        }
        lanes
    }

    /// Checks everything a worker or service would otherwise reject
    /// mid-run or silently ignore: a known workload name (a calibrated
    /// kernel, a well-formed `gen:<family>:<seed>` scenario, or a
    /// `kern:<kernel>` native driver), a non-empty valid lane grid, a
    /// non-zero fuel budget, and a kernel registry matching this build.
    ///
    /// # Errors
    ///
    /// [`JobError`] naming the offending field; bad TU counts carry
    /// the streaming layer's own message.
    pub fn validate(&self) -> Result<(), JobError> {
        if !loopspec_workloads::known_name(&self.workload) {
            return Err(SnapError::Corrupt {
                what: "unknown workload name",
            }
            .into());
        }
        let lanes = self.lane_specs();
        if lanes.is_empty() {
            return Err(SnapError::Corrupt {
                what: "empty lane grid",
            }
            .into());
        }
        for lane in &lanes {
            lane.validate()?;
        }
        if self.total_fuel == 0 {
            return Err(SnapError::Corrupt {
                what: "zero fuel budget",
            }
            .into());
        }
        if self.kernel_registry != loopspec_isa::kernel::registry_fingerprint() {
            return Err(SnapError::Corrupt {
                what: "kernel registry fingerprint",
            }
            .into());
        }
        Ok(())
    }

    /// The 64-bit content address of this spec: FNV-1a over the
    /// canonical encoding of every report-determining field. The shard
    /// [`Plan`] is excluded — slicing is proven report-invariant, so
    /// re-submitting the same study with a different shard size must
    /// hit the cache.
    pub fn fingerprint(&self) -> u64 {
        let mut enc = Enc::new();
        self.save_report_fields(&mut enc);
        fnv1a(&enc.into_bytes())
    }

    /// Every field that determines the report — the fingerprint domain.
    /// Lanes are encoded as the expanded [`Self::lane_specs`] list.
    fn save_report_fields(&self, enc: &mut Enc) {
        save_str(enc, &self.workload);
        save_scale(enc, self.scale);
        let lanes = self.lane_specs();
        enc.u64(lanes.len() as u64);
        for lane in &lanes {
            lane.save(enc);
        }
        enc.u64(self.total_fuel);
        // Two retired study flags (oracle, dataspec): replay jobs only
        // ever compute the lane grid. Their constant bytes keep every
        // fingerprint as it was.
        enc.bool(false);
        enc.bool(false);
        enc.u64(self.kernel_registry);
    }

    /// The single-workload [`SuiteSpec`] this spec describes — the
    /// bridge onto the coordinator/worker scheduling core.
    pub fn suite(&self) -> SuiteSpec {
        let mut suite = SuiteSpec::new(
            [self.workload.clone()],
            self.scale,
            self.lane_specs(),
            self.plan,
        );
        suite.total_fuel = self.total_fuel;
        suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::default_lanes;

    #[test]
    fn defaults_reproduce_the_paper_grid() {
        let spec = JobSpec::new("compress");
        assert_eq!(spec.lane_specs(), default_lanes());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn builder_crosses_policies_with_tus() {
        let spec = JobSpec::new("go")
            .policies([Policy::Idle, Policy::StrNested(2)])
            .tus([4, 8]);
        let lane = |policy, tus| LaneSpec { policy, tus };
        assert_eq!(
            spec.lane_specs(),
            vec![
                lane(Policy::Idle, 4),
                lane(Policy::StrNested(2), 4),
                lane(Policy::Idle, 8),
                lane(Policy::StrNested(2), 8),
            ]
        );
    }

    #[test]
    fn fingerprint_ignores_the_plan_but_nothing_else() {
        let base = JobSpec::new("compress");
        let resliced = base.clone().plan(Plan::split(7));
        assert_eq!(base.fingerprint(), resliced.fingerprint());

        for other in [
            JobSpec::new("go"),
            base.clone().scale(Scale::Small),
            base.clone().tus([2, 4]),
            base.clone().policies([Policy::Str]),
            base.clone().total_fuel(999),
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        assert!(JobSpec::new("specmark").validate().is_err());
        assert!(JobSpec::new("compress").tus([]).validate().is_err());
        assert!(JobSpec::new("compress").tus([1]).validate().is_err());
        assert!(JobSpec::new("compress").total_fuel(0).validate().is_err());
    }

    #[test]
    fn validation_admits_generated_scenarios() {
        assert!(JobSpec::new("gen:chase:7").validate().is_ok());
        assert!(JobSpec::new("gen:mixed:123456789").validate().is_ok());
    }

    #[test]
    fn validation_rejects_malformed_gen_tokens() {
        // Every malformation admission control must stop before a
        // worker sees it: bad family, bad seed, bad shape.
        for name in [
            "gen:",
            "gen:chase",
            "gen:chase:",
            "gen:chase:seed",
            "gen:chase:-1",
            "gen:chase:1.5",
            "gen::7",
            "gen:unknownfamily:7",
            "gen:CHASE:7",
        ] {
            let err = JobSpec::new(name).validate();
            assert!(err.is_err(), "{name:?} must be rejected");
        }
        // Other fields are still checked for gen names.
        assert!(JobSpec::new("gen:chase:7")
            .total_fuel(0)
            .validate()
            .is_err());
        assert!(JobSpec::new("gen:chase:7").tus([]).validate().is_err());
    }

    #[test]
    fn gen_fingerprints_distinguish_family_and_seed() {
        let a = JobSpec::new("gen:chase:7");
        assert_ne!(a.fingerprint(), JobSpec::new("gen:chase:8").fingerprint());
        assert_ne!(a.fingerprint(), JobSpec::new("gen:trips:7").fingerprint());
        assert_eq!(a.fingerprint(), JobSpec::new("gen:chase:7").fingerprint());
    }

    #[test]
    fn bad_tu_rejection_text_matches_the_engine_grid() {
        // The same bad TU count must read identically whether it is
        // rejected at job admission or by the grid's TU-range check.
        let admission = JobSpec::new("compress").tus([1]).validate().unwrap_err();
        let engine = loopspec_mt::validate_tus(1).unwrap_err();
        assert_eq!(admission.to_string(), engine.to_string());
        assert_eq!(admission.to_string(), "num_tus must be in 2..=4096 (got 1)");
    }

    #[test]
    fn foreign_kernel_registries_change_the_fingerprint_and_fail_validation() {
        let base = JobSpec::new("compress");
        let mut foreign = base.clone();
        foreign.kernel_registry ^= 1;
        assert_ne!(
            base.fingerprint(),
            foreign.fingerprint(),
            "kernel registry must be part of the cache address"
        );
        assert!(base.validate().is_ok());
        assert!(
            foreign.validate().is_err(),
            "a spec from a foreign kernel registry must be rejected at admission"
        );
    }

    #[test]
    fn suite_bridges_onto_the_coordinator_spec() {
        let spec = JobSpec::new("compress").total_fuel(123);
        let suite = spec.suite();
        assert_eq!(suite.workloads, vec!["compress".to_string()]);
        assert_eq!(suite.lanes, spec.lane_specs());
        assert_eq!(suite.total_fuel, 123);
        assert_eq!(suite.plan, spec.plan);
    }
}
