//! Serving a configured stack cell: the bridge from [`StackConfig`]
//! (which model, compressed how) to a running multi-tenant
//! [`Server`] (batched, guarded, under admission control).
//!
//! [`runner::evaluate`](crate::runner::evaluate) answers "how fast is
//! one inference of this cell"; this module answers "what does this
//! cell sustain under open-loop traffic" by materialising the cell's
//! network once and handing it to the serving layer, which runs every
//! session on a replica of it.

use crate::build::try_materialise;
use crate::config::StackConfig;
use cnn_stack_serve::{ServeConfig, ServeError, Server};

/// Starts a server over the network a stack cell materialises.
///
/// The model layer (architecture, compression surgery, weight format)
/// comes from `cfg` at the given `width`; everything serving-side —
/// batching policy, queue depth, deadlines, guard level, engine
/// threads — comes from `serve_cfg`. The serving engine always runs
/// im2col on the packed engine — not because it is fastest (Winograd
/// wins several VGG-16 layers) but because it keeps one weight form per
/// layer, shared by every session — so `cfg`'s
/// `algorithm`/`backend`/`platform` fields, which drive the *modelled*
/// evaluation, do not apply here.
///
/// # Errors
///
/// Returns [`ServeError::Engine`] when the cell cannot be materialised
/// (invalid operating point), or any session/plan error from server
/// start-up.
pub fn serve_cell(
    cfg: &StackConfig,
    width: f64,
    serve_cfg: ServeConfig,
) -> Result<Server, ServeError> {
    let model = try_materialise(cfg, width)?;
    Server::start(serve_cfg, move || model.network)
}
