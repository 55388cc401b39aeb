//! The content-addressed report cache.
//!
//! Entries are keyed by [`JobSpec::fingerprint`](loopspec_dist::JobSpec::fingerprint)
//! and stored **sealed**: the report's deterministic wire encoding
//! wrapped in the `seal`/`unseal` envelope from `isa::snap`, whose
//! trailer is the XXH64 integrity checksum (the key stays the FNV-1a
//! identity fingerprint).
//! A sealed entry is self-verifying — a corrupted byte anywhere in the
//! stored blob fails `unseal`, the entry is evicted, and the lookup
//! reports a miss, so the service falls back to recomputing instead of
//! serving garbage. Capacity pressure evicts least-recently-used
//! entries; a capacity of `0` disables caching entirely (every lookup
//! misses, every insert is dropped).

use std::collections::{HashMap, VecDeque};

use loopspec_core::snap::{seal, unseal};
use loopspec_dist::{Frame, Report};
use loopspec_obs::{journal, EventKind};

/// A bounded, LRU-evicting, corruption-detecting store of sealed
/// replay reports. See the [module docs](self).
#[derive(Debug)]
pub struct ReportCache {
    capacity: usize,
    entries: HashMap<u64, Vec<u8>>,
    /// LRU order, front = coldest. Every key in `entries` appears here
    /// exactly once.
    order: VecDeque<u64>,
    evictions: u64,
}

impl ReportCache {
    /// An empty cache holding at most `capacity` reports.
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries dropped so far — capacity pressure and detected
    /// corruption both count.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Stores `report` under `fingerprint` (replacing any previous
    /// entry), evicting the coldest entry if the cache is full.
    pub fn insert(&mut self, fingerprint: u64, report: &Report) {
        if self.capacity == 0 {
            return;
        }
        let sealed = seal(Frame::Report(report.clone()).encode());
        if self.entries.insert(fingerprint, sealed).is_none() {
            self.order.push_back(fingerprint);
            if self.entries.len() > self.capacity {
                if let Some(cold) = self.order.pop_front() {
                    self.entries.remove(&cold);
                    self.evictions += 1;
                    journal::record(
                        EventKind::CacheEviction,
                        cold,
                        0,
                        "coldest entry evicted under capacity pressure",
                    );
                }
            }
        } else {
            self.touch(fingerprint);
        }
    }

    /// Looks `fingerprint` up, unsealing and decoding the stored blob.
    /// A hit refreshes the entry's LRU position; an entry that fails
    /// its checksum or does not decode to a report is evicted and
    /// reported as a miss.
    pub fn get(&mut self, fingerprint: u64) -> Option<Report> {
        let sealed = self.entries.get(&fingerprint)?;
        let report = unseal(sealed)
            .ok()
            .and_then(|payload| Frame::decode(payload).ok())
            .and_then(|frame| match frame {
                Frame::Report(report) => Some(report),
                _ => None,
            });
        match report {
            Some(report) => {
                self.touch(fingerprint);
                Some(report)
            }
            None => {
                // Bit rot (or the fault hook): drop the entry so the
                // caller recomputes and re-caches a good copy.
                self.entries.remove(&fingerprint);
                self.order.retain(|&k| k != fingerprint);
                self.evictions += 1;
                journal::record(
                    EventKind::SealRecovery,
                    fingerprint,
                    0,
                    "sealed entry failed its checksum; evicted for recompute",
                );
                None
            }
        }
    }

    /// Fault-injection hook: flips one byte of the stored blob so the
    /// next [`ReportCache::get`] detects corruption. Returns whether an
    /// entry existed to corrupt.
    pub fn corrupt(&mut self, fingerprint: u64) -> bool {
        match self.entries.get_mut(&fingerprint) {
            Some(sealed) => {
                let mid = sealed.len() / 2;
                sealed[mid] ^= 0xff;
                true
            }
            None => false,
        }
    }

    fn touch(&mut self, fingerprint: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == fingerprint) {
            self.order.remove(pos);
            self.order.push_back(fingerprint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tag: u8) -> Report {
        Report {
            job: tag as u64,
            instructions: 1000 + tag as u64,
            lanes: vec![],
            state: vec![tag; 8],
        }
    }

    #[test]
    fn round_trips_reports_byte_for_byte() {
        let mut cache = ReportCache::new(4);
        cache.insert(7, &report(1));
        assert_eq!(cache.get(7), Some(report(1)));
        assert_eq!(cache.get(8), None);
    }

    #[test]
    fn capacity_evicts_the_coldest_entry() {
        let mut cache = ReportCache::new(2);
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        cache.get(1); // 2 is now coldest
        cache.insert(3, &report(3));
        assert_eq!(cache.get(2), None, "coldest entry evicted");
        assert_eq!(cache.get(1), Some(report(1)));
        assert_eq!(cache.get(3), Some(report(3)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn corruption_is_detected_and_evicted() {
        let mut cache = ReportCache::new(4);
        cache.insert(5, &report(5));
        assert!(cache.corrupt(5));
        assert_eq!(cache.get(5), None, "corrupt entry must not decode");
        assert_eq!(cache.len(), 0, "corrupt entry evicted");
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.corrupt(5), "nothing left to corrupt");
        // A fresh insert repairs the line.
        cache.insert(5, &report(5));
        assert_eq!(cache.get(5), Some(report(5)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ReportCache::new(0);
        cache.insert(1, &report(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut cache = ReportCache::new(2);
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        cache.insert(1, &report(9)); // refresh: 2 is now coldest
        cache.insert(3, &report(3));
        assert_eq!(cache.get(1), Some(report(9)));
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.len(), 2);
    }
}
