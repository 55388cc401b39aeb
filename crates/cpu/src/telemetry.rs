//! Out-of-band execution telemetry for the decoded front-end.
//!
//! [`DecodedTelemetry`] counts what the threaded-code dispatcher
//! actually did — superblock runs and their lengths, kernel dispatches
//! — in plain (non-atomic) `u64` cells that the dispatcher bumps
//! inline. Nothing here is architectural: the counters
//! are never serialized by [`Cpu::save_state`](crate::Cpu::save_state),
//! never hashed into a fingerprint, and never influence execution, so
//! instrumented runs stay bit-identical to uninstrumented ones.
//!
//! The intended flow is *take-and-flush*: a harness that owns the
//! [`Cpu`](crate::Cpu) calls
//! [`take_decoded_telemetry`](crate::Cpu::take_decoded_telemetry) at a
//! convenient boundary (end of a stream, end of a shard) and folds the
//! returned struct into whatever aggregation it keeps — this crate has
//! no dependency on the metrics registry.

/// Log2 bucket count for superblock run lengths (bucket `i` covers
/// lengths in `(2^(i-1), 2^i]`, matching the metrics crate's histogram
/// bucketing so the arrays merge directly).
pub const LEN_BUCKETS: usize = 64;

/// Counters the decoded dispatch loop bumps inline. All plain `u64` —
/// the hot paths run single-threaded over `&mut Cpu`, so atomics would
/// be pure cost.
#[derive(Debug, Clone)]
pub struct DecodedTelemetry {
    /// Straight-line superblock dispatches (one per run, clamped runs
    /// included).
    pub superblock_runs: u64,
    /// Log2-bucketed run lengths: bucket 0 is length ≤ 1, bucket `i`
    /// covers `(2^(i-1), 2^i]`.
    pub superblock_len_buckets: [u64; LEN_BUCKETS],
    /// Total instructions retired inside superblock runs.
    pub superblock_instrs: u64,
    /// Kernel dispatches: fresh `KernelCall` entries (a mid-body
    /// fuel-pause resume re-enters without bumping this).
    pub kernel_calls: u64,
    /// Instructions retired inside kernel bodies (across all modes).
    pub kernel_instrs: u64,
}

impl Default for DecodedTelemetry {
    fn default() -> Self {
        DecodedTelemetry {
            superblock_runs: 0,
            superblock_len_buckets: [0; LEN_BUCKETS],
            superblock_instrs: 0,
            kernel_calls: 0,
            kernel_instrs: 0,
        }
    }
}

impl DecodedTelemetry {
    /// Records one straight-line run of `len` retirements.
    #[inline(always)]
    pub(crate) fn record_superblock(&mut self, len: u64) {
        self.superblock_runs += 1;
        self.superblock_instrs += len;
        let b = if len <= 1 {
            0
        } else {
            (u64::BITS - (len - 1).leading_zeros()) as usize
        };
        self.superblock_len_buckets[b.min(LEN_BUCKETS - 1)] += 1;
    }

    /// Folds `other` into `self` (for harnesses aggregating across
    /// several CPUs).
    pub fn merge(&mut self, other: &DecodedTelemetry) {
        self.superblock_runs += other.superblock_runs;
        self.superblock_instrs += other.superblock_instrs;
        self.kernel_calls += other.kernel_calls;
        self.kernel_instrs += other.kernel_instrs;
        for (a, b) in self
            .superblock_len_buckets
            .iter_mut()
            .zip(other.superblock_len_buckets)
        {
            *a += b;
        }
    }

    /// `true` when nothing has been recorded since the last take.
    pub fn is_empty(&self) -> bool {
        self.superblock_runs == 0 && self.kernel_calls == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_buckets_are_log2() {
        let mut t = DecodedTelemetry::default();
        t.record_superblock(1);
        t.record_superblock(2);
        t.record_superblock(3);
        t.record_superblock(8);
        t.record_superblock(9);
        assert_eq!(t.superblock_runs, 5);
        assert_eq!(t.superblock_instrs, 23);
        assert_eq!(t.superblock_len_buckets[0], 1); // len 1
        assert_eq!(t.superblock_len_buckets[1], 1); // len 2
        assert_eq!(t.superblock_len_buckets[2], 1); // len 3..=4
        assert_eq!(t.superblock_len_buckets[3], 1); // len 5..=8
        assert_eq!(t.superblock_len_buckets[4], 1); // len 9..=16
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = DecodedTelemetry::default();
        a.record_superblock(4);
        let mut b = DecodedTelemetry::default();
        b.record_superblock(4);
        b.kernel_calls = 2;
        a.merge(&b);
        assert_eq!(a.superblock_runs, 2);
        assert_eq!(a.superblock_len_buckets[2], 2);
        assert_eq!(a.kernel_calls, 2);
        assert!(!a.is_empty());
    }
}
