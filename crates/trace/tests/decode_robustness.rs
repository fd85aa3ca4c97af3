//! Property: the decoder and the salvager are total functions over
//! damaged inputs. A valid encode, mutated by a single byte flip or cut
//! at an arbitrary point, must produce a *typed* `TraceError` from
//! `Trace::decode` — never a panic, never an unbounded allocation — and
//! `salvage` must likewise return structured success or failure.
//!
//! The error *classification* is pinned too:
//! * any truncation → `Truncated` (the tail magic is gone);
//! * a flip inside the leading magic → `BadMagic`;
//! * a flip inside the trailing tail magic → `Truncated` (reads as a
//!   torn write);
//! * a flip anywhere else → `BadChecksum` (the FNV trailer covers every
//!   byte before the checksum field, and a flip inside the stored
//!   checksum itself mismatches the recomputed one).

use rma_core::{Interval, SrcLoc};
use rma_sim::{RankId, RmaDir, WinId};
use rma_substrate::prop::{shrink_nothing, Gen, Prop};
use rma_trace::{salvage, Trace, TraceError, TraceEvent, TraceHeader, FORMAT_VERSION};

/// A small but representative trace: multiple ranks, epochs, located
/// events (string table), RMA records (delta state).
fn gen_trace(g: &mut Gen) -> Trace {
    let nranks = g.range(1u32..4);
    let streams = (0..nranks)
        .map(|r| {
            let mut evs = vec![
                TraceEvent::WinAllocate { win: WinId(0), base: u64::from(r) << 20, len: 64 },
                TraceEvent::Barrier,
            ];
            for e in 0..g.range(1u64..4) {
                evs.push(TraceEvent::LockAll { win: WinId(0) });
                if g.bool() {
                    evs.push(TraceEvent::Local {
                        interval: Interval::sized(e * 8, 8),
                        write: g.bool(),
                        on_stack: false,
                        tracked: true,
                        loc: SrcLoc::synthetic("robust.c", g.range(1u32..100)),
                    });
                }
                if g.bool() {
                    evs.push(TraceEvent::Rma {
                        dir: if g.bool() { RmaDir::Put } else { RmaDir::Get },
                        target: RankId(g.range(0u32..nranks)),
                        win: WinId(0),
                        origin_interval: Interval::sized(g.u64_any() >> 40, 8),
                        target_interval: Interval::sized(e * 16, 8),
                        origin_on_stack: false,
                        loc: SrcLoc::synthetic("robust.c", g.range(1u32..100)),
                    });
                }
                evs.push(TraceEvent::UnlockAll { win: WinId(0) });
                evs.push(TraceEvent::Barrier);
            }
            evs.push(TraceEvent::Finish);
            evs
        })
        .collect();
    Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            nranks,
            seed: g.u64_any(),
            app: "robustness".to_string(),
        },
        streams,
    }
}

#[test]
fn single_byte_flips_classify_and_never_panic() {
    Prop::new("single_byte_flips_classify_and_never_panic").cases(150).run(
        |g| {
            let bytes = gen_trace(g).encode();
            let at = g.range(0usize..bytes.len());
            let bit = 1u8 << g.range(0u32..8);
            (bytes, at, bit)
        },
        shrink_nothing,
        |(bytes, at, bit)| {
            let mut dam = bytes.clone();
            dam[*at] ^= bit;
            let err = Trace::decode(&dam).expect_err("a flipped byte must fail the decode");
            let expected: &[TraceError] = if *at < 8 {
                &[TraceError::BadMagic]
            } else if *at >= bytes.len() - 8 {
                &[TraceError::Truncated]
            } else {
                &[TraceError::BadChecksum]
            };
            assert!(
                expected.contains(&err),
                "flip at {at}/{} (bit {bit:#x}): got {err:?}, expected {expected:?}",
                bytes.len()
            );
            // Salvage is total on the same input: Ok or a typed error,
            // and the magic-flip case must be the structured rejection.
            match salvage(&dam) {
                Ok(rep) => assert!(rep.diagnosis.is_some(), "flip at {at}: salvage saw no damage"),
                Err(e) => assert!(
                    matches!(
                        e,
                        TraceError::BadMagic
                            | TraceError::Truncated
                            | TraceError::BadChecksum
                            | TraceError::BadVersion(_)
                            | TraceError::Corrupt(_)
                    ),
                    "flip at {at}: unstructured salvage failure {e:?}"
                ),
            }
        },
    );
}

#[test]
fn arbitrary_truncations_classify_and_never_panic() {
    Prop::new("arbitrary_truncations_classify_and_never_panic").cases(150).run(
        |g| {
            let bytes = gen_trace(g).encode();
            let keep = g.range(0usize..bytes.len()); // always a strict cut
            (bytes, keep)
        },
        shrink_nothing,
        |(bytes, keep)| {
            let cut = &bytes[..*keep];
            assert!(
                matches!(Trace::decode(cut), Err(TraceError::Truncated)),
                "cut to {keep}/{}: truncation misclassified as {:?}",
                bytes.len(),
                Trace::decode(cut)
            );
            // Salvage is total, and whatever it recovers is a genuine
            // prefix: re-encodable and decodable.
            if let Ok(rep) = salvage(cut) {
                let re = rep.trace.encode();
                let back = Trace::decode(&re).expect("salvaged trace must round-trip");
                assert_eq!(back, rep.trace);
                assert_eq!(rep.trace.event_count(), rep.decoded_events - rep.dropped_events);
            }
        },
    );
}

#[test]
fn double_damage_never_panics() {
    // Two independent faults (flip + cut) — no classification claims,
    // only totality of both entry points.
    Prop::new("double_damage_never_panics").cases(100).run(
        |g| {
            let bytes = gen_trace(g).encode();
            let at = g.range(0usize..bytes.len());
            let bit = 1u8 << g.range(0u32..8);
            let keep = g.range(1usize..bytes.len() + 1);
            (bytes, at, bit, keep)
        },
        shrink_nothing,
        |(bytes, at, bit, keep)| {
            let mut dam = bytes.clone();
            dam[*at] ^= bit;
            dam.truncate(*keep);
            let _ = Trace::decode(&dam);
            let _ = salvage(&dam);
        },
    );
}
