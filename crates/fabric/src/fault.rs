//! Network fault injection: seeded, deterministic hostility for the
//! fabric.
//!
//! A [`FaultPlan`] installed on a [`crate::Network`] makes message
//! delivery unreliable the way a real IPoIB fabric under stress is:
//! per-message loss, latency jitter, scheduled latency-spike and
//! full-loss windows, RPC duplication, and named cuts. Everything
//! is driven by the simulation clock and a *dedicated* RNG seeded from
//! the plan, so a given seed replays bit-identically and installing a
//! plan never perturbs random draws made elsewhere in the model.
//!
//! Faults are judged in [`crate::Network::send`], the one path every
//! message takes: the request/response legs of every protocol in this
//! workspace.
//! Probabilistic faults and windows apply only to messages touching the
//! plan's *scope* (when set); cuts are explicit, named, and apply
//! regardless of scope.
//!
//! Loss semantics model a TCP connection honestly: a lost message still
//! pays the sender-side cost and propagates nowhere, and the *sender*
//! learns of the failure — a dropped request blackholes the caller (it
//! only learns via its own deadline, like a TCP connection that stops
//! acknowledging).

use std::collections::BTreeSet;

use imca_sim::{SimDuration, SimTime};

use crate::network::NodeId;

/// A seeded, deterministic description of how hostile the network is.
///
/// The default plan is completely benign (no loss, no duplication, no
/// jitter, no windows, global scope); faults are opted into knob by knob.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the plan's dedicated RNG. Same seed + same traffic ⇒
    /// identical fault schedule.
    pub seed: u64,
    /// Per-message probability that a scoped message is dropped.
    pub loss: f64,
    /// Per-message probability that a scoped *request* is duplicated
    /// (delivered twice back-to-back, second copy charged to the wire).
    pub duplicate: f64,
    /// Maximum uniform extra one-way latency added to scoped messages
    /// (`ZERO` disables jitter).
    pub jitter: SimDuration,
    /// `[start, end)` windows of virtual time during which every scoped
    /// message is dropped.
    pub drop_windows: Vec<(SimTime, SimTime)>,
    /// `[start, end)` windows during which scoped messages pay an extra
    /// fixed one-way latency.
    pub latency_spikes: Vec<(SimTime, SimTime, SimDuration)>,
    /// Nodes the probabilistic faults and windows apply to: a message is
    /// fault-eligible iff its source or destination is in the scope.
    /// `None` = every node. Cuts ignore the scope.
    pub scope: Option<Vec<NodeId>>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            duplicate: 0.0,
            jitter: SimDuration::ZERO,
            drop_windows: Vec::new(),
            latency_spikes: Vec::new(),
            scope: None,
        }
    }
}

impl FaultPlan {
    /// A plan with the given seed and everything else benign.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }
}

/// A named deterministic cut: messages between `nodes` and every node
/// outside the set are dropped until the cut is healed.
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    pub name: String,
    pub nodes: BTreeSet<NodeId>,
}

impl Cut {
    /// Does this cut sever the `src → dst` link? Robust to nodes added to
    /// the network after the cut: they are outside the set.
    pub fn severs(&self, src: NodeId, dst: NodeId) -> bool {
        self.nodes.contains(&src) != self.nodes.contains(&dst)
    }
}

/// The fate of one fault-checked message ([`crate::Network::send`]
/// judges it, [`crate::Network::carry`] reports it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered normally.
    Ok,
    /// Delivered, and a duplicate copy was delivered right behind it.
    Duplicated,
    /// Dropped: paid the sender-side cost, never reached the receiver.
    Dropped,
}

impl Delivery {
    /// Whether the (first copy of the) message reached the receiver.
    pub fn arrived(self) -> bool {
        !matches!(self, Delivery::Dropped)
    }
}
