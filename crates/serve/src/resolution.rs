//! Request resolution and reply assembly: the serving semantics both
//! executors share.
//!
//! The live stager (`apc-core`'s `serving`) answers requests while frames
//! are still being produced; the replay pool (`apc-core`'s
//! `replay_serving`) answers them from a completed run, which is simply
//! the case where every frame exists. [`resolve`] decides what a request
//! gets as pure arithmetic over the run's iteration list (no store reads,
//! no clocks), so a planner and an executor calling it agree byte for
//! byte; [`Resolution::reply`] assembles the reply from the executor's
//! own frame reads.

use crate::protocol::{Fidelity, FrameReply, FrameRequest, ServePolicy, ServedFrame};
use crate::{degrade_stream, FrameKey, ServeError};

/// What a request resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Frame keys to read and ship, in iteration order. `exact` is false
    /// when a best-effort answer substituted an older frame or shipped
    /// only part of a range.
    Frames { exact: bool, keys: Vec<FrameKey> },
    /// Hold the reply until the frame at this index of the run has been
    /// produced (`WaitForFrame` racing production).
    Defer(usize),
    /// Best-effort request with nothing produced to substitute.
    NotYet,
    /// `WaitForFrame` request naming an iteration outside the run.
    NoSuchIteration(u64),
}

/// Resolve `request` for `stager`'s frames against the run's ascending
/// `iterations`, of which the first `produced` have been rendered.
///
/// * `Latest` gets the newest produced frame.
/// * An iteration that is produced is served exactly. One in the run but
///   not produced yet is deferred under `WaitForFrame`; under
///   `BestEffort` it gets the newest produced frame at or before it,
///   inexact, or `NotYet` when there is none.
/// * An iteration outside the run is `NoSuchIteration` under
///   `WaitForFrame`, and the same substitute-or-`NotYet` under
///   `BestEffort`.
/// * A range gets its produced frames: all of them exactly, or — when
///   part of the range is still to come — `Defer` to its last frame under
///   `WaitForFrame` and the produced part, inexact (`NotYet` if that is
///   empty), under `BestEffort`. A
///   range that names no iteration of the run is `NoSuchIteration(start)`
///   under `WaitForFrame` and `NotYet` under `BestEffort`.
pub fn resolve(
    request: FrameRequest,
    stager: u32,
    policy: ServePolicy,
    iterations: &[usize],
    produced: usize,
) -> Resolution {
    assert!(
        (1..=iterations.len()).contains(&produced),
        "resolution needs 1..={} produced frames, got {produced}",
        iterations.len()
    );
    let key = |idx: usize| (iterations[idx] as u64, stager);
    let frames = |exact: bool, keys: Vec<FrameKey>| Resolution::Frames { exact, keys };
    // The newest produced frame at or before iteration `it`.
    let substitute = |it: u64| match iterations[..produced].iter().rposition(|&x| x as u64 <= it) {
        Some(idx) => frames(false, vec![key(idx)]),
        None => Resolution::NotYet,
    };
    let wait = policy == ServePolicy::WaitForFrame;
    match request {
        FrameRequest::Latest => frames(true, vec![key(produced - 1)]),
        FrameRequest::AtIteration(it) => match iterations.iter().position(|&x| x as u64 == it) {
            Some(idx) if idx < produced => frames(true, vec![key(idx)]),
            Some(idx) if wait => Resolution::Defer(idx),
            None if wait => Resolution::NoSuchIteration(it),
            _ => substitute(it),
        },
        FrameRequest::Range { start, end } => {
            let idxs: Vec<usize> = (0..iterations.len())
                .filter(|&i| (start..=end).contains(&(iterations[i] as u64)))
                .collect();
            let keys: Vec<FrameKey> = idxs
                .iter()
                .filter(|&&i| i < produced)
                .map(|&i| key(i))
                .collect();
            match idxs.last() {
                None if wait => Resolution::NoSuchIteration(start),
                Some(&last) if wait && last >= produced => Resolution::Defer(last),
                _ if keys.is_empty() => Resolution::NotYet,
                _ => frames(keys.len() == idxs.len(), keys),
            }
        }
    }
}

impl Resolution {
    /// Keys the resolution ships.
    pub fn keys(&self) -> &[FrameKey] {
        match self {
            Resolution::Frames { keys, .. } => keys,
            _ => &[],
        }
    }

    /// Assemble the reply: `fetch(key)` yields each frame's encoded stream
    /// and whether it was a cache hit (the executor charges its own read
    /// cost there), and every stream ships at `fidelity` —
    /// [`Fidelity::Full`] passes the bytes through unchanged, any other
    /// rung re-encodes them ([`degrade_stream`]). The first fetch or
    /// degrade error is returned.
    ///
    /// # Panics
    ///
    /// On [`Resolution::Defer`]: a deferred request has no reply until it
    /// is resolved again at its due frame.
    pub fn reply<F>(&self, fidelity: Fidelity, mut fetch: F) -> Result<FrameReply, ServeError>
    where
        F: FnMut(FrameKey) -> Result<(Vec<u8>, bool), ServeError>,
    {
        match self {
            Resolution::Frames { exact, keys } => {
                let frames = keys
                    .iter()
                    .map(|&(iteration, stager)| {
                        let (stream, cache_hit) = fetch((iteration, stager))?;
                        let stream = match fidelity {
                            Fidelity::Full => stream,
                            _ => degrade_stream(&stream, fidelity)?,
                        };
                        Ok(ServedFrame {
                            iteration,
                            stager,
                            cache_hit,
                            fidelity,
                            stream,
                        })
                    })
                    .collect::<Result<_, ServeError>>()?;
                Ok(FrameReply::Frames {
                    exact: *exact,
                    frames,
                })
            }
            Resolution::NotYet => Ok(FrameReply::NotYet),
            Resolution::NoSuchIteration(it) => Ok(FrameReply::NoSuchIteration(*it)),
            Resolution::Defer(due) => {
                unreachable!("a request deferred to frame {due} has no reply yet")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frame;
    use apc_store::CodecKind;

    const ITERS: &[usize] = &[100, 200, 300, 400];
    const WAIT: ServePolicy = ServePolicy::WaitForFrame;
    const BEST: ServePolicy = ServePolicy::BestEffort;

    fn at(it: u64) -> FrameRequest {
        FrameRequest::AtIteration(it)
    }

    fn range(start: u64, end: u64) -> FrameRequest {
        FrameRequest::Range { start, end }
    }

    fn exact(keys: &[FrameKey]) -> Resolution {
        Resolution::Frames {
            exact: true,
            keys: keys.to_vec(),
        }
    }

    fn inexact(keys: &[FrameKey]) -> Resolution {
        Resolution::Frames {
            exact: false,
            keys: keys.to_vec(),
        }
    }

    // A completed run (`produced == len`) is the replay pool's case: its
    // tiers map Premium → WaitForFrame and Free → BestEffort.

    #[test]
    fn latest_is_exact_for_both_tiers() {
        for policy in [WAIT, BEST] {
            let r = resolve(FrameRequest::Latest, 2, policy, ITERS, 4);
            assert_eq!(r, exact(&[(400, 2)]));
        }
    }

    #[test]
    fn in_run_iteration_is_exact_for_both_tiers() {
        for policy in [WAIT, BEST] {
            assert_eq!(resolve(at(200), 0, policy, ITERS, 4), exact(&[(200, 0)]));
        }
    }

    #[test]
    fn absent_iteration_splits_by_tier() {
        // WaitForFrame gets the typed error; BestEffort gets the newest
        // frame at or before the request, flagged inexact.
        assert_eq!(
            resolve(at(250), 0, WAIT, ITERS, 4),
            Resolution::NoSuchIteration(250)
        );
        assert_eq!(resolve(at(250), 0, BEST, ITERS, 4), inexact(&[(200, 0)]));
        // Past the end of the run, best effort substitutes the last frame.
        assert_eq!(resolve(at(999), 1, BEST, ITERS, 4), inexact(&[(400, 1)]));
    }

    #[test]
    fn request_predating_the_run_is_notyet_for_free() {
        assert_eq!(resolve(at(50), 0, BEST, ITERS, 4), Resolution::NotYet);
        assert_eq!(
            resolve(at(50), 0, WAIT, ITERS, 4),
            Resolution::NoSuchIteration(50)
        );
    }

    #[test]
    fn ranges_clip_to_the_run() {
        assert_eq!(
            resolve(range(150, 350), 0, WAIT, ITERS, 4),
            exact(&[(200, 0), (300, 0)])
        );
        // Empty intersection follows the policy split.
        assert_eq!(
            resolve(range(500, 600), 0, WAIT, ITERS, 4),
            Resolution::NoSuchIteration(500)
        );
        assert_eq!(resolve(range(0, 50), 0, BEST, ITERS, 4), Resolution::NotYet);
    }

    // Production still running (`produced < len`): the live stager's case.

    #[test]
    fn latest_is_the_newest_produced_frame() {
        for policy in [WAIT, BEST] {
            let r = resolve(FrameRequest::Latest, 1, policy, ITERS, 2);
            assert_eq!(r, exact(&[(200, 1)]));
        }
    }

    #[test]
    fn unproduced_iteration_defers_or_substitutes() {
        // Produced frames are exact under either policy.
        assert_eq!(resolve(at(100), 0, WAIT, ITERS, 2), exact(&[(100, 0)]));
        assert_eq!(resolve(at(200), 0, BEST, ITERS, 2), exact(&[(200, 0)]));
        // WaitForFrame holds the reply until the frame's index exists.
        assert_eq!(resolve(at(400), 0, WAIT, ITERS, 2), Resolution::Defer(3));
        // BestEffort substitutes the newest produced frame, inexact.
        assert_eq!(resolve(at(400), 0, BEST, ITERS, 2), inexact(&[(200, 0)]));
    }

    #[test]
    fn unproduced_range_defers_to_its_last_frame_or_ships_a_part() {
        assert_eq!(
            resolve(range(200, 300), 0, WAIT, ITERS, 2),
            Resolution::Defer(2)
        );
        // A partial range comes back inexact with its produced part.
        assert_eq!(
            resolve(range(100, 300), 3, BEST, ITERS, 2),
            inexact(&[(100, 3), (200, 3)])
        );
        // A fully produced range is exact.
        assert_eq!(
            resolve(range(100, 200), 0, WAIT, ITERS, 2),
            exact(&[(100, 0), (200, 0)])
        );
    }

    #[test]
    fn nothing_qualifying_is_notyet() {
        // A range wholly ahead of production has no produced part.
        assert_eq!(
            resolve(range(300, 400), 0, BEST, ITERS, 1),
            Resolution::NotYet
        );
        // An absent iteration older than every produced frame.
        assert_eq!(resolve(at(99), 0, BEST, ITERS, 1), Resolution::NotYet);
    }

    #[test]
    fn best_effort_absent_requests_substitute_or_notyet() {
        // The two answers the live stager used to give as
        // `NoSuchIteration`: an absent iteration now substitutes the
        // newest produced frame at or before it…
        assert_eq!(resolve(at(250), 0, BEST, ITERS, 3), inexact(&[(200, 0)]));
        assert_eq!(resolve(at(999), 0, BEST, ITERS, 3), inexact(&[(300, 0)]));
        // …and a range naming no iteration of the run is `NotYet`.
        assert_eq!(
            resolve(range(210, 290), 0, BEST, ITERS, 3),
            Resolution::NotYet
        );
        // WaitForFrame keeps the typed error for both.
        assert_eq!(
            resolve(at(250), 0, WAIT, ITERS, 3),
            Resolution::NoSuchIteration(250)
        );
        assert_eq!(
            resolve(range(210, 290), 0, WAIT, ITERS, 3),
            Resolution::NoSuchIteration(210)
        );
    }

    #[test]
    #[should_panic(expected = "produced frames")]
    fn nothing_produced_is_rejected() {
        let _ = resolve(FrameRequest::Latest, 0, BEST, ITERS, 0);
    }

    /// A fetch over encoded sample frames: key `(it, stager)` yields a
    /// 4×4 frame of that key, a cache hit on multiples of 200.
    fn fetch(key: FrameKey) -> Result<(Vec<u8>, bool), ServeError> {
        let pixels: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin() * 30.0).collect();
        let frame = Frame::new(key.0, key.1, 4, 4, pixels).with_render_info(9, 40.0);
        Ok((frame.encode(CodecKind::Fpz), key.0.is_multiple_of(200)))
    }

    fn two_frames() -> Resolution {
        exact(&[(100, 1), (200, 1)])
    }

    #[test]
    fn full_reply_passes_streams_verbatim() {
        let reply = two_frames().reply(Fidelity::Full, fetch).unwrap();
        assert!(reply.exact());
        assert_eq!(reply.frames().len(), 2);
        for served in reply.frames() {
            let key = (served.iteration, served.stager);
            assert_eq!(served.stream, fetch(key).unwrap().0);
            assert_eq!(served.fidelity, Fidelity::Full);
        }
        assert_eq!(reply.verify().unwrap(), 1, "iteration 200 is the one hit");
    }

    #[test]
    fn degraded_rungs_reencode_every_frame() {
        for fidelity in [
            Fidelity::Lossy { tolerance: 0.5 },
            Fidelity::Dropped {
                keep_percent: 25.0,
                tolerance: 0.1,
            },
        ] {
            let reply = two_frames().reply(fidelity, fetch).unwrap();
            for served in reply.frames() {
                let full = fetch((served.iteration, served.stager)).unwrap().0;
                assert_eq!(served.stream, degrade_stream(&full, fidelity).unwrap());
                assert_eq!(served.fidelity, fidelity);
            }
            reply.verify().unwrap();
        }
    }

    #[test]
    fn header_only_reply_decodes_without_pixels() {
        let reply = two_frames().reply(Fidelity::HeaderOnly, fetch).unwrap();
        for served in reply.frames() {
            let frame = Frame::decode(&served.stream).unwrap();
            assert!(frame.pixels.is_empty());
            assert_eq!(
                (frame.iteration, frame.stager, frame.triangles),
                (served.iteration, 1, 9)
            );
        }
        reply.verify().unwrap();
    }

    #[test]
    fn frameless_resolutions_reply_without_fetching() {
        let never = |_| -> Result<(Vec<u8>, bool), ServeError> { panic!("no frame to fetch") };
        assert_eq!(
            Resolution::NotYet.reply(Fidelity::Full, never).unwrap(),
            FrameReply::NotYet
        );
        assert_eq!(
            Resolution::NoSuchIteration(7)
                .reply(Fidelity::HeaderOnly, never)
                .unwrap(),
            FrameReply::NoSuchIteration(7)
        );
    }

    #[test]
    fn fetch_errors_propagate() {
        let broken = |_| -> Result<(Vec<u8>, bool), ServeError> {
            Err(ServeError::Corrupt("unreadable".into()))
        };
        for fidelity in [Fidelity::Full, Fidelity::HeaderOnly] {
            let err = two_frames().reply(fidelity, broken).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(m) if m == "unreadable"));
        }
        // A stream the ladder cannot decode fails the reply too.
        let garbage = |_| -> Result<(Vec<u8>, bool), ServeError> { Ok((vec![9; 3], false)) };
        let err = two_frames()
            .reply(Fidelity::Lossy { tolerance: 0.5 }, garbage)
            .unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)));
    }

    #[test]
    #[should_panic(expected = "has no reply yet")]
    fn deferred_resolution_has_no_reply() {
        let _ = Resolution::Defer(3).reply(Fidelity::Full, fetch);
    }
}
