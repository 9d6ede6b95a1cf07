//! Coherence protocol messages.
//!
//! "The controller synthesizes a global shared memory space via
//! messages to other nodes, and satisfies requests from other nodes
//! directed to its local memory. It maintains strong cache coherence
//! for memory accesses" (paper, Section 2.1). The directory protocol is
//! the full-map invalidation scheme of Chaiken et al. (the paper's
//! reference \[5\]).
//!
//! Messages carry no data payload in this model; data is functionally
//! backed by the machine's global memory, so only the protocol events
//! and their sizes travel on the network. Sizes (in flits) follow the
//! Table 4 convention of an average packet size of 4: headers cost 2
//! flits and a data-bearing message adds one flit per block word.
//!
//! Every protocol message carries a transaction sequence number `xid`
//! so the endpoints stay correct on an unreliable network: requester →
//! home requests carry the requester's transaction id (echoed in the
//! reply, so duplicated or stale replies are idempotently ignored), and
//! home → cache invalidation/write-back demands carry the directory's
//! busy *epoch* (echoed in the acknowledgment, so a delayed duplicate
//! ack from an earlier epoch can never satisfy a later transaction).

// Protocol hot path: failures must surface as typed errors, not tear
// down the simulator on the first injected fault.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

/// One protocol (or out-of-band) message between cache controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CohMsg {
    /// Requester → home: read (shared) copy of a block.
    RdReq {
        /// Block address.
        block: u32,
        /// Requester transaction id, echoed in the reply.
        xid: u32,
    },
    /// Requester → home: exclusive (writable) copy of a block.
    WrReq {
        /// Block address.
        block: u32,
        /// Requester transaction id, echoed in the reply.
        xid: u32,
    },
    /// Home → requester: grant of a shared copy (carries data).
    RdReply {
        /// Block address.
        block: u32,
        /// The transaction id this reply answers.
        xid: u32,
    },
    /// Home → requester: grant of an exclusive copy (carries data).
    WrReply {
        /// Block address.
        block: u32,
        /// The transaction id this reply answers.
        xid: u32,
    },
    /// Home → requester: the home's waiter queue for the block is full;
    /// retry the request later (with backoff).
    Nack {
        /// Block address.
        block: u32,
        /// The transaction id being refused.
        xid: u32,
    },
    /// Home → sharer: invalidate your shared copy.
    Inval {
        /// Block address.
        block: u32,
        /// Directory busy epoch, echoed in the ack.
        xid: u32,
    },
    /// Sharer → home: invalidation acknowledged.
    InvAck {
        /// Block address.
        block: u32,
        /// The busy epoch this ack answers.
        xid: u32,
    },
    /// Home → owner: downgrade Modified to Shared, write data back.
    DownReq {
        /// Block address.
        block: u32,
        /// Directory busy epoch, echoed in the ack.
        xid: u32,
    },
    /// Owner → home: downgrade done (carries data).
    DownAck {
        /// Block address.
        block: u32,
        /// The busy epoch this ack answers.
        xid: u32,
    },
    /// Home → owner: surrender your exclusive copy entirely.
    WbInvalReq {
        /// Block address.
        block: u32,
        /// Directory busy epoch, echoed in the ack.
        xid: u32,
    },
    /// Owner → home: exclusive copy surrendered (carries data).
    WbInvalAck {
        /// Block address.
        block: u32,
        /// The busy epoch this ack answers.
        xid: u32,
    },
    /// Node → home: voluntary write-back of a dirty line (eviction or
    /// explicit FLUSH; carries data).
    FlushData {
        /// Block address.
        block: u32,
        /// True if this flush was initiated by a FLUSH instruction and
        /// therefore participates in the fence counter.
        fenced: bool,
        /// Flush id for fenced flushes (echoed in the ack so duplicate
        /// acks cannot decrement the fence twice); 0 for evictions.
        xid: u32,
    },
    /// Home → node: write-back acknowledged; decrements the fence
    /// counter if the flush was fenced.
    FlushAck {
        /// Block address.
        block: u32,
        /// Fenced-flush acknowledgment.
        fenced: bool,
        /// The flush id this ack answers.
        xid: u32,
    },
    /// Preemptive interprocessor interrupt (Section 3.4).
    #[default]
    Ipi,
    /// Block transfer of `words` words into the receiver's memory
    /// (Section 3.4; timing-only in this model).
    BlockXfer {
        /// Destination block address.
        block: u32,
        /// Number of words transferred.
        words: u32,
    },
}

impl CohMsg {
    /// Message size in flits: a 2-flit header plus one flit per data
    /// word for data-bearing messages (`block_words` is the machine's
    /// block size in words).
    pub fn size_flits(self, block_words: u32) -> u32 {
        match self {
            CohMsg::RdReq { .. }
            | CohMsg::WrReq { .. }
            | CohMsg::Nack { .. }
            | CohMsg::Inval { .. }
            | CohMsg::InvAck { .. }
            | CohMsg::DownReq { .. }
            | CohMsg::WbInvalReq { .. }
            | CohMsg::FlushAck { .. }
            | CohMsg::Ipi => 2,
            CohMsg::RdReply { .. }
            | CohMsg::WrReply { .. }
            | CohMsg::DownAck { .. }
            | CohMsg::WbInvalAck { .. }
            | CohMsg::FlushData { .. } => 2 + block_words,
            CohMsg::BlockXfer { words, .. } => 2 + words,
        }
    }

    /// The block this message concerns, if any.
    pub fn block(self) -> Option<u32> {
        match self {
            CohMsg::RdReq { block, .. }
            | CohMsg::WrReq { block, .. }
            | CohMsg::RdReply { block, .. }
            | CohMsg::WrReply { block, .. }
            | CohMsg::Nack { block, .. }
            | CohMsg::Inval { block, .. }
            | CohMsg::InvAck { block, .. }
            | CohMsg::DownReq { block, .. }
            | CohMsg::DownAck { block, .. }
            | CohMsg::WbInvalReq { block, .. }
            | CohMsg::WbInvalAck { block, .. }
            | CohMsg::FlushData { block, .. }
            | CohMsg::FlushAck { block, .. }
            | CohMsg::BlockXfer { block, .. } => Some(block),
            CohMsg::Ipi => None,
        }
    }

    /// The transaction id / busy epoch the message carries, if any.
    pub fn xid(self) -> Option<u32> {
        match self {
            CohMsg::RdReq { xid, .. }
            | CohMsg::WrReq { xid, .. }
            | CohMsg::RdReply { xid, .. }
            | CohMsg::WrReply { xid, .. }
            | CohMsg::Nack { xid, .. }
            | CohMsg::Inval { xid, .. }
            | CohMsg::InvAck { xid, .. }
            | CohMsg::DownReq { xid, .. }
            | CohMsg::DownAck { xid, .. }
            | CohMsg::WbInvalReq { xid, .. }
            | CohMsg::WbInvalAck { xid, .. }
            | CohMsg::FlushData { xid, .. }
            | CohMsg::FlushAck { xid, .. } => Some(xid),
            CohMsg::Ipi | CohMsg::BlockXfer { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_are_small() {
        assert_eq!(CohMsg::RdReq { block: 0, xid: 0 }.size_flits(4), 2);
        assert_eq!(CohMsg::InvAck { block: 0, xid: 0 }.size_flits(4), 2);
        assert_eq!(CohMsg::Nack { block: 0, xid: 0 }.size_flits(4), 2);
    }

    #[test]
    fn data_messages_carry_the_block() {
        assert_eq!(CohMsg::RdReply { block: 0, xid: 0 }.size_flits(4), 6);
        assert_eq!(
            CohMsg::FlushData {
                block: 0,
                fenced: true,
                xid: 1
            }
            .size_flits(4),
            6
        );
        assert_eq!(
            CohMsg::BlockXfer {
                block: 0,
                words: 32
            }
            .size_flits(4),
            34
        );
    }

    #[test]
    fn block_extraction() {
        assert_eq!(
            CohMsg::RdReq {
                block: 0x40,
                xid: 3
            }
            .block(),
            Some(0x40)
        );
        assert_eq!(CohMsg::Ipi.block(), None);
    }

    #[test]
    fn xid_extraction() {
        assert_eq!(CohMsg::WrReply { block: 0, xid: 9 }.xid(), Some(9));
        assert_eq!(CohMsg::BlockXfer { block: 0, words: 1 }.xid(), None);
        assert_eq!(CohMsg::Ipi.xid(), None);
    }
}
