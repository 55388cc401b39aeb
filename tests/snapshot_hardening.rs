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
//! 1. the outer container (`Snapshot::from_bytes`): its XXH64
//!    checksum must catch every truncation and bit flip;
//! 2. the inner sections (`Session::resume`): with the checksum
//!    *recomputed* after corruption, the flipped bytes reach the
//!    per-layer `load_state` decoders — which must error (or accept a
//!    still-valid state) without panicking. In release builds a state
//!    that loads must also *run*: each resumed session goes on for a
//!    bounded number of instructions and ends its stream, so a state
//!    that loads and then trips the next event fails the suite. Every
//!    resealing test also proves that some of its inputs got past the
//!    checksum, so none of them can pass only because the trailer
//!    rejected everything;
//! 3. the dist frame layer (`FrameReader`): a hostile length prefix is
//!    rejected before any allocation;
//! 4. the `EngineGrid` and `IterationCountLog` sections on their own:
//!    one byte of a section's saved state is flipped, incremented or
//!    decremented and loaded into a fresh twin, which must refuse it or
//!    (in release builds) take the rest of the stream without a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use loopspec::core::snap::{checksum, fnv1a, Dec, Enc, SnapError};
use loopspec::dist::wire::{FrameReader, WireError};
use loopspec::pipeline::SnapshotError;
use loopspec::prelude::*;
use loopspec_testutil::Rng;

/// Instructions a resumed session runs before it ends its stream.
const RUN_ON: u64 = 200_000;

/// The compress workload at `Scale::Test`, built once.
fn compress() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        workload_by_name("compress")
            .expect("workload exists")
            .build(Scale::Test)
            .expect("assembles")
    })
}

/// Runs a resumed `session` on for [`RUN_ON`] instructions of
/// `program`, then ends its stream — in release builds, the ones that
/// serve untrusted bytes. A debug build stops at the resume: its
/// assertions on the event stream (positions ascend, iterations count
/// up by one, a loop opens once) also fire on a state whose sections
/// each load but disagree with one another, which no section's
/// `load_state` can see on its own.
fn run_on(mut session: Session<'_>, program: &Program) -> Result<(), SnapshotError> {
    if cfg!(debug_assertions) {
        return Ok(());
    }
    session.advance(program, RunLimits::with_fuel(RUN_ON))?;
    session.finish();
    Ok(())
}

/// A realistic snapshot: the compress workload paused mid-run with a
/// three-lane grid and an event collector registered.
fn sample_snapshot() -> Vec<u8> {
    let program = compress();
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
        .advance(program, RunLimits::with_fuel(30_000))
        .expect("runs");
    session.checkpoint().expect("checkpointable").to_bytes()
}

/// Tries to resume `bytes` into a freshly configured session and, if
/// that succeeds, to run it on to the end of its stream; the result may
/// be `Ok` (the corruption landed in a don't-care or still-valid spot)
/// or `Err` — anything but a panic.
fn try_resume(bytes: &[u8]) -> Result<(), SnapshotError> {
    let snapshot = Snapshot::from_bytes(bytes)?;
    let mut events = EventCollector::default();
    let mut grid = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut grid, 4);
    Policy::Str.add_to_grid(&mut grid, 4);
    Policy::StrNested(3).add_to_grid(&mut grid, 4);
    let mut session = Session::new();
    session
        .observe_checkpointable(&mut events)
        .observe_checkpointable(&mut grid);
    session.resume(&snapshot)?;
    run_on(session, compress())
}

/// Re-seals a container whose payload was mutated, so the corruption
/// penetrates past the checksum into the section decoders. Uses the
/// container's own trailer hash; `resealing_pristine_bytes_changes_nothing`
/// keeps the two from drifting apart.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let sum = checksum(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
}

/// `true` unless the outcome is the container's checksum refusal — the
/// input reached the decoders behind it.
fn past_checksum(outcome: &Result<(), SnapshotError>) -> bool {
    !matches!(
        outcome,
        Err(SnapshotError::Codec(SnapError::Corrupt {
            what: "snapshot checksum"
        }))
    )
}

#[test]
fn resealing_pristine_bytes_changes_nothing() {
    for pristine in [sample_snapshot(), kernel_snapshot()] {
        let mut bytes = pristine.clone();
        reseal(&mut bytes);
        assert_eq!(
            bytes, pristine,
            "reseal must be the container's own checksum"
        );
    }
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
    let mut past = 0u32;
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
        let outcome = try_resume(&bad);
        past += past_checksum(&outcome) as u32;
        if outcome.is_ok() {
            survived += 1; // flipped a don't-care or still-valid value
        }
    }
    // No assertion on the split: the property is "no panic, no
    // unbounded allocation". But a decoder that accepted *everything*
    // would mean the echoes and tags verify nothing.
    assert!(survived < 512, "some corruption must be detected");
    assert!(past > 0, "no resealed input got past the checksum");
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
    let mut past = 0u32;
    for _ in 0..256 {
        let mut bad = bytes.clone();
        // Overwrite 8 aligned-ish bytes somewhere in the payload with a
        // huge little-endian value — if it lands on a length/count
        // field, the decoder sees a multi-terabyte claim.
        let at = rng.below((bad.len() - 16) as u64) as usize;
        bad[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        reseal(&mut bad);
        // Must not panic or OOM.
        past += past_checksum(&try_resume(&bad)) as u32;
    }
    assert!(past > 0, "no resealed input got past the checksum");

    // Same property at the dist frame layer, where the length prefix
    // is fully attacker-controlled.
    let hostile = u32::MAX.to_le_bytes();
    let outcome = FrameReader::new(&hostile[..]).read_frame();
    assert!(
        matches!(
            outcome,
            Err(WireError::Codec(SnapError::Corrupt {
                what: "frame length"
            }))
        ),
        "got {outcome:?}"
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
    let mut events = EventCollector::default();
    let mut session = Session::new();
    session.observe_checkpointable(&mut events);
    session
        .advance(ksum(), RunLimits::with_fuel(10_000))
        .expect("runs");
    session.checkpoint().expect("checkpointable").to_bytes()
}

/// The `kern:ksum` driver at `Scale::Test`, built once.
fn ksum() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        build_named("kern:ksum", Scale::Test)
            .expect("kern:ksum is a known name")
            .expect("assembles")
    })
}

/// Resumes kernel-snapshot `bytes` into a matching session and runs it
/// on, as [`try_resume`] does.
fn try_resume_kernel(bytes: &[u8]) -> Result<(), SnapshotError> {
    let snapshot = Snapshot::from_bytes(bytes)?;
    let mut events = EventCollector::default();
    let mut session = Session::new();
    session.observe_checkpointable(&mut events);
    session.resume(&snapshot)?;
    run_on(session, ksum())
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
fn v3_containers_are_rejected_as_a_version_mismatch() {
    // A real v3 container: version word 3 and an FNV-1a trailer. The
    // version is read before the trailer is verified, so the refusal
    // names the version, not the (foreign) checksum.
    let mut bytes = kernel_snapshot();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    let payload_len = bytes.len() - 8;
    let sum = fnv1a(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
    let err = Snapshot::from_bytes(&bytes).expect_err("v3 must not decode");
    assert_eq!(
        err,
        SnapshotError::Codec(SnapError::Mismatch {
            what: "snapshot version"
        })
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
    let mut past = 0u32;
    const TRIES: u32 = 512;
    for _ in 0..TRIES {
        let mut bad = bytes.clone();
        // Flip inside the registry echo, then reseal so the corruption
        // reaches the id/fingerprint checks instead of the checksum.
        let byte = 8 + rng.below(klen as u64) as usize;
        bad[byte] ^= 1 << rng.below(8);
        reseal(&mut bad);
        let outcome = try_resume_kernel(&bad);
        past += past_checksum(&outcome) as u32;
        if outcome.is_ok() {
            survived += 1;
        }
    }
    assert!(past > 0, "no resealed input got past the checksum");
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

// ---- grid and count-log sections --------------------------------------
//
// A dist worker loads a grid section straight out of a `Job`, and the
// phase-1 count log checkpoints the same way, so each is attacked on
// its own saved bytes rather than through a container (where random
// flips land mostly in CPU pages).

/// Workloads whose `Scale::Test` loop events the section mutations cut.
const SECTION_WORKLOADS: [&str; 2] = ["compress", "li"];

/// Byte positions sampled per section and cut; each gets three
/// mutations.
const SECTION_BYTES: usize = 256;

/// The grid the section mutations save and load: IDLE@4, STR@4 and
/// STR(3)@8.
fn section_grid() -> EngineGrid {
    let mut grid = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut grid, 4);
    Policy::Str.add_to_grid(&mut grid, 4);
    Policy::StrNested(3).add_to_grid(&mut grid, 8);
    grid
}

/// One workload's loop events, cut at event `cut`.
struct Cut<'a> {
    workload: &'a str,
    events: &'a [LoopEvent],
    instructions: u64,
    cut: usize,
}

/// Saves a `fresh()` section fed the events before the cut, then loads
/// seeded one-byte mutations of those bytes into fresh twins. A twin
/// that loads takes the rest of the events and the stream end in
/// release builds. Returns how many mutations loaded; panics, naming
/// the workload, cut, byte and mutation, if any mutation panics.
fn mutate_section<S: SnapshotState + LoopEventSink>(
    section: &str,
    fresh: impl Fn() -> S,
    at: &Cut<'_>,
    rng: &mut Rng,
) -> u32 {
    let mut original = fresh();
    original.on_loop_events(&at.events[..at.cut]);
    let mut enc = Enc::new();
    original.save_state(&mut enc);
    let bytes = enc.into_bytes();
    let mut loaded = 0;
    for _ in 0..SECTION_BYTES {
        let byte = rng.below(bytes.len() as u64) as usize;
        let bit = rng.below(8);
        for (mutation, value) in [
            (format!("bit {bit} flipped"), bytes[byte] ^ (1 << bit)),
            ("+1".to_string(), bytes[byte].wrapping_add(1)),
            ("-1".to_string(), bytes[byte].wrapping_sub(1)),
        ] {
            let mut bad = bytes.clone();
            bad[byte] = value;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut twin = fresh();
                let ok = twin.load_state(&mut Dec::new(&bad)).is_ok();
                if ok && !cfg!(debug_assertions) {
                    twin.on_loop_events(&at.events[at.cut..]);
                    twin.on_stream_end(at.instructions);
                }
                ok
            }));
            let Ok(ok) = outcome else {
                panic!(
                    "{section} of {} cut at event {}: byte {byte} of {}, {mutation}, panicked",
                    at.workload,
                    at.cut,
                    bytes.len()
                );
            };
            loaded += u32::from(ok);
        }
    }
    loaded
}

#[test]
fn mutated_grid_and_count_log_sections_are_refused_or_run_to_the_end() {
    let mut rng = Rng::new(0xdead_0007);
    for workload in SECTION_WORKLOADS {
        let program = workload_by_name(workload)
            .expect("workload exists")
            .build(Scale::Test)
            .expect("assembles");
        let mut collector = EventCollector::default();
        Cpu::new()
            .run(&program, &mut collector, RunLimits::default())
            .expect("runs");
        let (events, instructions) = collector.into_parts();
        let (mut grids, mut logs) = (0, 0);
        for cut in [events.len() / 3, events.len() * 2 / 3] {
            let at = Cut {
                workload,
                events: &events,
                instructions,
                cut,
            };
            grids += mutate_section("EngineGrid", section_grid, &at, &mut rng);
            logs += mutate_section("IterationCountLog", IterationCountLog::new, &at, &mut rng);
        }
        // A section that refused everything would prove nothing about
        // the states that load.
        assert!(grids > 0, "{workload}: no grid mutation loaded");
        assert!(logs > 0, "{workload}: no count-log mutation loaded");
    }
}
