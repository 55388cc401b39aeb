//! Iteration-count prediction — the speculation-facing use of the LET.
//!
//! "In order to implement a stride predictor, each LET entry contains, in
//! addition to the T and R fields, the last iteration count and the
//! difference between the previous two counts" (paper §2.3); STR adds a
//! two-bit saturating confidence counter on the stride (§3.1.2).

use loopspec_core::{LoopId, LoopTable};

#[derive(Debug, Clone, Copy)]
struct PredEntry {
    last_count: u32,
    stride: i64,
    has_stride: bool,
    conf: u8, // two-bit saturating counter; reliable when >= 2
}

/// LET-backed iteration-count stride predictor.
///
/// Updated by the engine at every loop-execution end; queried at every
/// iteration start to size the speculation burst. The table is unbounded
/// ("enough capacity", as the paper assumes for the speculation
/// experiments).
///
/// ```
/// use loopspec_mt::IterPredictor;
/// use loopspec_core::LoopId;
/// use loopspec_isa::Addr;
///
/// let mut p = IterPredictor::new();
/// let l = LoopId(Addr::new(4));
/// assert_eq!(p.predict(l), None);
/// p.record_execution(l, 10);
/// assert_eq!(p.predict(l), Some(10)); // the last count
/// p.record_execution(l, 12);
/// p.record_execution(l, 14);
/// p.record_execution(l, 16);
/// // stride 2 repeated three times: reliable.
/// assert_eq!(p.predict(l), Some(18));
/// ```
#[derive(Debug, Clone)]
pub struct IterPredictor {
    table: LoopTable<PredEntry>,
}

impl Default for IterPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl IterPredictor {
    /// Creates an unbounded predictor.
    pub fn new() -> Self {
        IterPredictor {
            table: LoopTable::unbounded(),
        }
    }

    /// Records that an execution of `loop_id` completed with `count`
    /// iterations.
    pub fn record_execution(&mut self, loop_id: LoopId, count: u32) {
        match self.table.get_mut(loop_id) {
            Some(e) => {
                let new_stride = count as i64 - e.last_count as i64;
                if e.has_stride {
                    if new_stride == e.stride {
                        e.conf = (e.conf + 1).min(3);
                    } else {
                        if e.conf == 0 {
                            e.stride = new_stride;
                        }
                        e.conf = e.conf.saturating_sub(1);
                    }
                } else {
                    e.stride = new_stride;
                    e.has_stride = true;
                    e.conf = 1;
                }
                e.last_count = count;
            }
            None => {
                self.table.insert(
                    loop_id,
                    PredEntry {
                        last_count: count,
                        stride: 0,
                        has_stride: false,
                        conf: 0,
                    },
                );
            }
        }
        self.table.touch(loop_id);
    }

    /// Predicts the total iteration count of the current execution of
    /// `loop_id`: `last_count + stride` when the stride is reliable, else
    /// a repeat of the last count, and `None` before the loop's first
    /// closed execution.
    pub fn predict(&self, loop_id: LoopId) -> Option<u32> {
        let e = self.table.get(loop_id)?;
        Some(if e.has_stride && e.conf >= 2 {
            (e.last_count as i64 + e.stride).max(0) as u32
        } else {
            e.last_count
        })
    }

    /// Number of loops currently tracked.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no loop has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Serializes the full LET contents — per-loop last count, stride,
/// confidence, and the LRU ordering — so a restored engine predicts
/// exactly what the uninterrupted one would.
impl loopspec_core::SnapshotState for IterPredictor {
    fn save_state(&self, out: &mut loopspec_core::snap::Enc) {
        self.table.save_state_with(out, |e, out| {
            out.u32(e.last_count);
            out.i64(e.stride);
            out.bool(e.has_stride);
            out.u8(e.conf);
        });
    }

    fn load_state(
        &mut self,
        src: &mut loopspec_core::snap::Dec<'_>,
    ) -> Result<(), loopspec_core::snap::SnapError> {
        self.table.load_state_with(src, |src| {
            Ok(PredEntry {
                last_count: src.u32()?,
                stride: src.i64()?,
                has_stride: src.bool()?,
                conf: src.u8()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::Addr;

    fn lid(n: u32) -> LoopId {
        LoopId(Addr::new(n))
    }

    #[test]
    fn unknown_before_any_execution() {
        let p = IterPredictor::new();
        assert_eq!(p.predict(lid(1)), None);
        assert!(p.is_empty());
    }

    #[test]
    fn last_count_after_one_execution() {
        let mut p = IterPredictor::new();
        p.record_execution(lid(1), 7);
        assert_eq!(p.predict(lid(1)), Some(7));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn constant_count_becomes_reliable_zero_stride() {
        let mut p = IterPredictor::new();
        for _ in 0..3 {
            p.record_execution(lid(1), 10);
        }
        assert_eq!(p.predict(lid(1)), Some(10));
    }

    #[test]
    fn confidence_decays_on_noise() {
        let mut p = IterPredictor::new();
        for c in [10, 12, 14, 16] {
            p.record_execution(lid(1), c);
        }
        assert_eq!(p.predict(lid(1)), Some(18));
        // Two erratic counts drop the two-bit counter below threshold.
        p.record_execution(lid(1), 3);
        p.record_execution(lid(1), 50);
        // A reliable stride 2 would predict 52.
        assert_eq!(p.predict(lid(1)), Some(50));
    }

    #[test]
    fn stride_retrains_after_confidence_bottoms_out() {
        let mut p = IterPredictor::new();
        for c in [10, 12, 14] {
            p.record_execution(lid(1), c); // stride 2, conf grows
        }
        // Switch to stride 5: conf decays to 0, then the stride retrains.
        for c in [19, 24, 29, 34, 39] {
            p.record_execution(lid(1), c);
        }
        assert_eq!(p.predict(lid(1)), Some(44));
    }

    #[test]
    fn negative_stride_saturates_at_zero_total() {
        let mut p = IterPredictor::new();
        for c in [9, 6, 3] {
            p.record_execution(lid(1), c);
        }
        // stride -3 reliable; prediction 3 - 3 = 0.
        assert_eq!(p.predict(lid(1)), Some(0));
    }

    #[test]
    fn loops_are_independent() {
        let mut p = IterPredictor::new();
        p.record_execution(lid(1), 100);
        p.record_execution(lid(2), 3);
        assert_eq!(p.predict(lid(1)), Some(100));
        assert_eq!(p.predict(lid(2)), Some(3));
    }
}
