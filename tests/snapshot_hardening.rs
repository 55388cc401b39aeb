//! Adversarial-input hardening for the snapshot codec: whatever bytes
//! arrive — truncated, bit-flipped, or outright garbage — decoding
//! must fail with a clean `SnapError`/`SnapshotError`, never panic,
//! and never attempt an allocation sized by attacker-controlled input.
//!
//! Snapshot bytes now cross process boundaries (the `loopspec-dist`
//! wire protocol ships them through pipes and sockets), so the decode
//! path is exposed to torn writes, dying peers, and corrupt transports
//! — this suite is the paranoia those paths deserve. Three layers are
//! attacked, all with the seeded testutil RNG:
//!
//! 1. the outer container (`Snapshot::from_bytes`): its FNV checksum
//!    must catch every truncation and bit flip;
//! 2. the inner sections (`Session::resume`): with the checksum
//!    *recomputed* after corruption, the flipped bytes reach the
//!    per-layer `load_state` decoders — which must error (or accept a
//!    still-valid state) without panicking;
//! 3. the dist frame layer (`FrameBuf`): corrupt lengths and payloads
//!    are rejected before any allocation.

use loopspec::core::snap::{fnv1a, FrameBuf, SnapError};
use loopspec::prelude::*;
use loopspec_testutil::Rng;

/// A realistic snapshot: the compress workload paused mid-run with a
/// three-lane grid and an event collector registered.
fn sample_snapshot() -> Vec<u8> {
    let w = workload_by_name("compress").expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");
    let mut events = EventCollector::default();
    let mut grid = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut grid, 4);
    Policy::Str.add_to_grid(&mut grid, 4);
    Policy::StrNested(3).add_to_grid(&mut grid, 4);
    let mut session = Session::new();
    session
        .observe_checkpointable(&mut events)
        .observe_checkpointable(&mut grid);
    session
        .advance(&program, RunLimits::with_fuel(30_000))
        .expect("runs");
    session.checkpoint().expect("checkpointable").to_bytes()
}

/// Tries to resume `bytes` into a freshly configured session; the
/// result may be `Ok` (the corruption landed in a don't-care or
/// still-valid spot) or `Err` — anything but a panic.
fn try_resume(bytes: &[u8]) -> Result<(), String> {
    let snapshot = Snapshot::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut events = EventCollector::default();
    let mut grid = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut grid, 4);
    Policy::Str.add_to_grid(&mut grid, 4);
    Policy::StrNested(3).add_to_grid(&mut grid, 4);
    let mut session = Session::new();
    session
        .observe_checkpointable(&mut events)
        .observe_checkpointable(&mut grid);
    session.resume(&snapshot).map_err(|e| e.to_string())
}

/// Re-seals a container whose payload was mutated, so the corruption
/// penetrates past the checksum into the section decoders.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let sum = fnv1a(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_fails_cleanly() {
    let bytes = sample_snapshot();
    // Every prefix, dense at the edges, seeded-sampled in the middle
    // (the container is tens of kilobytes).
    let mut rng = Rng::new(0xdead_0001);
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((bytes.len().saturating_sub(64)..bytes.len()).collect::<Vec<_>>());
    cuts.extend((0..512).map(|_| rng.below(bytes.len() as u64) as usize));
    for cut in cuts {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must not decode"
        );
    }
}

#[test]
fn every_sampled_bit_flip_is_caught_by_the_checksum() {
    let bytes = sample_snapshot();
    let mut rng = Rng::new(0xdead_0002);
    for _ in 0..512 {
        let byte = rng.below(bytes.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        let mut bad = bytes.clone();
        bad[byte] ^= 1 << bit;
        assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "bit flip at {byte}.{bit} must not decode"
        );
    }
}

#[test]
fn resealed_corruption_reaches_section_decoders_without_panicking() {
    let bytes = sample_snapshot();
    let mut rng = Rng::new(0xdead_0003);
    let mut survived = 0u32;
    for _ in 0..512 {
        let mut bad = bytes.clone();
        // 1 to 4 independent flips, then a recomputed checksum: the
        // container now *looks* intact, so the flipped bytes flow into
        // the CPU / detector / engine-grid state decoders.
        for _ in 0..rng.range(1, 5) {
            let byte = rng.below((bad.len() - 8) as u64) as usize;
            bad[byte] ^= 1 << rng.below(8);
        }
        reseal(&mut bad);
        if try_resume(&bad).is_ok() {
            survived += 1; // flipped a don't-care or still-valid value
        }
    }
    // No assertion on the split: the property is "no panic, no
    // unbounded allocation". But a decoder that accepted *everything*
    // would mean the echoes and tags verify nothing.
    assert!(survived < 512, "some corruption must be detected");
}

#[test]
fn random_garbage_never_decodes() {
    let mut rng = Rng::new(0xdead_0004);
    for len in [0usize, 1, 7, 8, 64, 4096] {
        for _ in 0..64 {
            let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            assert!(Snapshot::from_bytes(&garbage).is_err());
        }
    }
}

#[test]
fn hostile_length_prefixes_cannot_oversize_allocations() {
    // A container whose inner length fields claim the moon: the
    // bounds-checked decoder must reject them against the remaining
    // input instead of allocating.
    let bytes = sample_snapshot();
    let mut rng = Rng::new(0xdead_0005);
    for _ in 0..256 {
        let mut bad = bytes.clone();
        // Overwrite 8 aligned-ish bytes somewhere in the payload with a
        // huge little-endian value — if it lands on a length/count
        // field, the decoder sees a multi-terabyte claim.
        let at = rng.below((bad.len() - 16) as u64) as usize;
        bad[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        reseal(&mut bad);
        let _ = try_resume(&bad); // must not panic or OOM
    }

    // Same property at the dist frame layer, where the length prefix
    // is fully attacker-controlled.
    let mut buf = FrameBuf::new(1 << 20);
    buf.extend(&u32::MAX.to_le_bytes());
    assert_eq!(
        buf.next_frame(),
        Err(SnapError::Corrupt {
            what: "frame length"
        })
    );
}

#[test]
fn pristine_snapshot_still_resumes_after_all_that() {
    // Sanity: the unmutated bytes decode and resume fine (the suite
    // attacks real snapshots, not strawmen).
    let bytes = sample_snapshot();
    try_resume(&bytes).expect("pristine snapshot resumes");
}

// ---- v3 kernel-state section ----------------------------------------
//
// The v3 container opens with a kernel-registry echo (ids + body
// fingerprints) right after the magic/version words, and the CPU
// section can carry a kernel pause cursor when the checkpoint lands
// mid-`KernelCall`. These are new decode surfaces; they get the same
// treatment as the rest of the container.

/// A snapshot paused *inside* a kernel body: the `kern:` drivers issue
/// 4096-trip kernel calls (tens of thousands of retired instructions
/// each), so a 10 K-fuel pause lands mid-call and the container
/// carries the v3 pause cursor, not just the registry echo.
fn kernel_snapshot() -> Vec<u8> {
    let program = build_named("kern:ksum", Scale::Test)
        .expect("kern:ksum is a known name")
        .expect("assembles");
    let mut events = EventCollector::default();
    let mut session = Session::new();
    session.observe_checkpointable(&mut events);
    session
        .advance(&program, RunLimits::with_fuel(10_000))
        .expect("runs");
    session.checkpoint().expect("checkpointable").to_bytes()
}

/// Resumes kernel-snapshot `bytes` into a matching session.
fn try_resume_kernel(bytes: &[u8]) -> Result<(), String> {
    let snapshot = Snapshot::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut events = EventCollector::default();
    let mut session = Session::new();
    session.observe_checkpointable(&mut events);
    session.resume(&snapshot).map_err(|e| e.to_string())
}

/// Byte length of the kernel-registry echo, which spans
/// `payload[8 .. 8 + len]` (magic and version words come first).
fn kernel_section_len() -> usize {
    let mut enc = loopspec::isa::snap::Enc::new();
    loopspec::isa::kernel::save_state(&mut enc);
    enc.into_bytes().len()
}

#[test]
fn v2_containers_are_rejected_with_a_clean_typed_error() {
    use loopspec::core::snap::SnapError;
    use loopspec::pipeline::SnapshotError;

    let mut bytes = kernel_snapshot();
    // The version word sits at payload bytes [4..8], after the magic.
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    reseal(&mut bytes);
    let err = Snapshot::from_bytes(&bytes).expect_err("v2 must not decode");
    assert!(
        matches!(
            err,
            SnapshotError::Codec(SnapError::Mismatch {
                what: "snapshot version"
            })
        ),
        "want a typed version mismatch, got {err:?}"
    );
}

#[test]
fn kernel_section_truncations_fail_cleanly() {
    let bytes = kernel_snapshot();
    let cut_end = 8 + kernel_section_len();
    assert!(bytes.len() > cut_end, "container extends past the echo");
    // Every prefix ending inside the registry echo (and the words
    // before it): the checksum must reject each one.
    for cut in 0..=cut_end {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must not decode"
        );
    }
}

#[test]
fn kernel_section_bitflips_never_panic_and_are_mostly_caught() {
    let bytes = kernel_snapshot();
    let klen = kernel_section_len();
    let mut rng = Rng::new(0xdead_0006);
    let mut survived = 0u32;
    const TRIES: u32 = 512;
    for _ in 0..TRIES {
        let mut bad = bytes.clone();
        // Flip inside the registry echo, then reseal so the corruption
        // reaches the id/fingerprint checks instead of the checksum.
        let byte = 8 + rng.below(klen as u64) as usize;
        bad[byte] ^= 1 << rng.below(8);
        reseal(&mut bad);
        if try_resume_kernel(&bad).is_ok() {
            survived += 1;
        }
    }
    // A corrupted registry echo (count, id, or fingerprint) must not
    // resume against the built-in registry. Don't demand zero
    // survivors — a flip can land in a don't-care encoding corner —
    // but the echo must verify *something*.
    assert!(
        survived < TRIES / 4,
        "registry echo verifies ids and fingerprints ({survived}/{TRIES} survived)"
    );
}

#[test]
fn mid_kernel_snapshot_resumes_cleanly_when_pristine() {
    let bytes = kernel_snapshot();
    try_resume_kernel(&bytes).expect("pristine mid-kernel snapshot resumes");
}
