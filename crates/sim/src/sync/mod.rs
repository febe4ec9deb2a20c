//! Synchronisation primitives for simulation processes.
//!
//! All primitives are `Rc`-based and single-threaded — they synchronise
//! *virtual-time* processes inside one [`crate::Sim`], not OS threads.

mod barrier;
mod oneshot;
mod queue;
mod resource;

pub use barrier::Barrier;
pub use oneshot::{oneshot, Canceled, OneshotReceiver, OneshotSender};
pub use queue::Queue;
pub use resource::{Acquire, Resource, ResourceGuard};
