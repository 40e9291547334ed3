//! Frame persistence and serving — the layer between the staged in situ
//! pipeline and its viewers.
//!
//! The staged runtime (`apc-stage` / `apc-core`) renders one frame per
//! stager per iteration; before this crate those frames were counted and
//! discarded. Here they become durable, addressable artifacts:
//!
//! * [`Frame`] — a stager's rendered output for one iteration: an `f32`
//!   plan-view image plus provenance (iteration, stager slot, triangle
//!   count, reduction percentage);
//! * [`FrameStore`] — persistence over any [`apc_store::StoreBackend`]
//!   (disk or memory), one key per `(run id, iteration, stager)` with a
//!   per-frame [`apc_store::CodecKind`] codec — lossless codecs replay
//!   frames byte-identically; a [`RunManifest`] document makes a stored
//!   run self-describing;
//! * [`FrameSink`] — the cloneable write handle `apc-core` threads through
//!   `StagedParams::persist` so stagers persist frames as they render;
//! * [`FrameRequest`] / [`FrameReply`] — the deterministic request/reply
//!   protocol served over `apc_comm::bounded`'s reserved serve tags;
//!   [`FrameReply::verify`] is the client's end-to-end check of a reply;
//! * [`resolve`] / [`Resolution`] — the serving semantics both executors
//!   share: what a request gets given the frames produced so far, with a
//!   [`ServePolicy`] deciding what happens when it races production (wait
//!   for the frame, or answer best-effort with the newest one available),
//!   and [`Resolution::reply`], which assembles the reply from the
//!   executor's own frame reads at a fidelity rung;
//! * [`Fidelity`] / [`degrade_stream`] — the reply-fidelity ladder the
//!   adaptive serving executor walks under latency pressure (full →
//!   lossy zfpx re-encode → score-ranked dropping → header-only), plus
//!   the deterministic re-encode that implements each rung;
//! * [`FrameKey`] — the `(iteration, stager)` coordinate of a frame
//!   within a run; it keys the hot-frame `apc_store::ChunkCache` a
//!   serving stager answers from before falling back to store reads, and
//!   the replay pool's routing.
//!
//! The crate is deliberately runtime-agnostic: it defines payloads,
//! persistence, request resolution and reply assembly, all deterministic;
//! the two SPMD serving executors that schedule them — the live stager
//! pool and the replay pool — live in `apc-core` (`core/src/serving.rs`,
//! `core/src/replay_serving.rs`).
//!
//! ```
//! use apc_serve::{Frame, FrameStore};
//! use apc_store::{CodecKind, MemStore};
//!
//! let store = FrameStore::new(MemStore::new(), "demo");
//! let frame = Frame::new(300, 0, 2, 2, vec![0.0, 1.5, -2.0, 45.0])
//!     .with_render_info(128, 40.0);
//! store.put_frame(&frame, CodecKind::Fpz).unwrap();
//! let back = store.get_frame(300, 0).unwrap();
//! assert_eq!(back, frame); // lossless codec: bit-exact replay
//! ```

pub mod degrade;
pub mod frame;
pub mod protocol;
pub mod resolution;
pub mod store;

pub use degrade::degrade_stream;
pub use frame::Frame;
pub use protocol::{Fidelity, FrameReply, FrameRequest, ServePolicy, ServedFrame};
pub use resolution::{resolve, Resolution};
pub use store::{frame_key, open_run, FrameSink, FrameStore, RunManifest};

/// A frame's coordinate within a run: `(iteration, stager)`.
pub type FrameKey = (u64, u32);

/// Errors of frame persistence and decoding.
#[derive(Debug)]
pub enum ServeError {
    /// The backend failed or the frame key does not exist.
    Store(apc_store::StoreError),
    /// A frame stream is structurally damaged (truncated header,
    /// bit-flipped tag, payload/shape mismatch). Never a panic: corrupt
    /// bytes from disk must surface as data, not as control flow.
    Corrupt(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "frame store error: {e}"),
            ServeError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Corrupt(_) => None,
        }
    }
}

impl From<apc_store::StoreError> for ServeError {
    fn from(e: apc_store::StoreError) -> Self {
        // Codec and shape failures inside a chunk payload mean the frame
        // bytes are damaged; everything else is a backend/key problem.
        match e {
            apc_store::StoreError::Codec(c) => ServeError::Corrupt(format!("chunk decode: {c}")),
            apc_store::StoreError::ChunkShape { expected, got } => ServeError::Corrupt(format!(
                "pixel payload holds {got} samples, frame header promises {expected}"
            )),
            apc_store::StoreError::BadMeta(m) => ServeError::Corrupt(m),
            apc_store::StoreError::Shard(m) => ServeError::Corrupt(format!("shard container: {m}")),
            other => ServeError::Store(other),
        }
    }
}
