//! The two-sided tag-matching table: posted receives vs. arrived sends.
//!
//! Matching semantics follow MPI/LCI: an arrived message matches the
//! oldest posted receive with the same `(src, tag)`, where a receive may
//! be posted with [`ANY_SOURCE`]. Exact-source receives are searched
//! before wildcards.
//!
//! The table is one of the contention points the paper names: "they
//! contend on various resources such as ... the matching table" (§4.1).
//! Every insert/lookup serializes through a [`SimResource`], so the
//! `sendrecv` protocol — which must post receives and match sends — pays
//! measurably more than `putsendrecv`, reproducing the up-to-3.5x gap of
//! Fig. 2.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use netsim::NodeId;
use simcore::{CostModel, Sim, SimResource, SimTime};

use crate::comp::Comp;
use crate::protocol::ANY_SOURCE;

/// A receive waiting for a message.
#[derive(Debug)]
pub struct PostedRecv {
    /// Exact source or [`ANY_SOURCE`].
    pub src: NodeId,
    /// Tag to match.
    pub tag: u64,
    /// Completion to signal on match.
    pub comp: Comp,
    /// User context word.
    pub user: u64,
}

/// An arrived message no receive was posted for yet.
#[derive(Debug)]
pub struct UnexpectedMsg {
    /// Sender rank.
    pub src: NodeId,
    /// Tag.
    pub tag: u64,
    /// Eager payload, or empty for a rendezvous RTS.
    pub data: Bytes,
    /// True when this records an RTS (long protocol) rather than an eager
    /// message; `imm` then carries the sender's op id.
    pub rts: bool,
    /// Sender-side op id (rendezvous only).
    pub imm: u64,
    /// Payload size promised by the RTS.
    pub size: usize,
    /// Wire-arrival instant of the packet that carried this message
    /// (observability only).
    pub arrived: SimTime,
}

/// The matching table. Not thread-safe in host terms (the simulation is
/// single-threaded); *simulated* contention is captured by the embedded
/// resource.
pub struct MatchTable {
    posted: HashMap<(NodeId, u64), VecDeque<PostedRecv>>,
    unexpected: HashMap<(NodeId, u64), VecDeque<UnexpectedMsg>>,
    res: SimResource,
    posted_count: usize,
    unexpected_count: usize,
}

impl MatchTable {
    /// Create an empty table; `transfer_ns` models cross-core access.
    pub fn new(transfer_ns: u64) -> Self {
        MatchTable {
            posted: HashMap::new(),
            unexpected: HashMap::new(),
            res: SimResource::new("lci.matching", transfer_ns),
            posted_count: 0,
            unexpected_count: 0,
        }
    }

    /// Charge one table access from `core` with `service` ns.
    pub fn charge(&mut self, sim: &mut Sim, core: usize, service: u64) -> SimTime {
        self.res.access(sim.now(), core, service)
    }

    /// Post a receive, starting no earlier than `at` (the caller's
    /// accumulated virtual time). If a matching unexpected message is
    /// already queued, the receive is *not* inserted — both sides are
    /// handed back so the caller can complete the operation immediately.
    pub fn post_recv_at(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        cost: &CostModel,
        recv: PostedRecv,
    ) -> (std::result::Result<(), (PostedRecv, UnexpectedMsg)>, SimTime) {
        let done = self
            .charge(sim, core, cost.lci_match_insert)
            .max(at.max(sim.now()) + cost.lci_match_insert);
        if recv.src == ANY_SOURCE {
            // Wildcard: take the matching unexpected message from the
            // lowest-numbered source for determinism.
            let found = self
                .unexpected
                .iter()
                .filter(|((_, t), q)| *t == recv.tag && !q.is_empty())
                .map(|((s, _), _)| *s)
                .min();
            if let Some(src) = found {
                let q = self.unexpected.get_mut(&(src, recv.tag)).expect("key exists");
                let msg = q.pop_front().expect("non-empty");
                self.unexpected_count -= 1;
                sim.stats.bump("lci.match_unexpected_hit");
                return (Err((recv, msg)), done);
            }
        } else if let Some(q) = self.unexpected.get_mut(&(recv.src, recv.tag)) {
            if let Some(msg) = q.pop_front() {
                self.unexpected_count -= 1;
                sim.stats.bump("lci.match_unexpected_hit");
                return (Err((recv, msg)), done);
            }
        }
        self.posted_count += 1;
        self.posted.entry((recv.src, recv.tag)).or_default().push_back(recv);
        sim.stats.bump("lci.recv_posted");
        (Ok(()), done)
    }

    /// An eager message or RTS arrived: find the oldest matching posted
    /// receive (returned together with the message), or stash the message
    /// as unexpected.
    pub fn match_arrival(
        &mut self,
        sim: &mut Sim,
        core: usize,
        cost: &CostModel,
        msg: UnexpectedMsg,
    ) -> (std::result::Result<(PostedRecv, UnexpectedMsg), ()>, SimTime) {
        let done = self.charge(sim, core, cost.lci_match_lookup);
        // Exact-source receives first, then wildcard.
        for key in [(msg.src, msg.tag), (ANY_SOURCE, msg.tag)] {
            let hit = self.posted.get_mut(&key).and_then(|q| q.pop_front());
            if let Some(recv) = hit {
                self.posted_count -= 1;
                sim.stats.bump("lci.match_hit");
                return (Ok((recv, msg)), done);
            }
        }
        let extra = self.charge(sim, core, cost.lci_unexpected);
        self.unexpected_count += 1;
        sim.stats.bump("lci.unexpected");
        self.unexpected.entry((msg.src, msg.tag)).or_default().push_back(msg);
        (Err(()), extra)
    }

    /// Number of posted receives waiting.
    pub fn posted_len(&self) -> usize {
        self.posted_count
    }

    /// Number of unexpected messages waiting.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv(src: NodeId, tag: u64) -> PostedRecv {
        PostedRecv { src, tag, comp: Comp::None, user: 0 }
    }

    fn msg(src: NodeId, tag: u64) -> UnexpectedMsg {
        UnexpectedMsg {
            src,
            tag,
            data: Bytes::from_static(b"x"),
            rts: false,
            imm: 0,
            size: 1,
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn arrival_matches_posted_receive() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(3, 7));
        let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(3, 7));
        let (r, m) = m.unwrap();
        assert_eq!(r.src, 3);
        assert_eq!(m.data.as_ref(), b"x");
        assert_eq!(t.posted_len(), 0);
    }

    #[test]
    fn unmatched_arrival_goes_unexpected_then_matches() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(2, 9));
        assert!(m.is_err());
        assert_eq!(t.unexpected_len(), 1);
        let (u, _) = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(2, 9));
        let (r, m) = u.unwrap_err();
        assert_eq!(r.src, 2);
        assert_eq!(m.src, 2);
        assert_eq!(t.unexpected_len(), 0);
        assert_eq!(t.posted_len(), 0);
    }

    #[test]
    fn wrong_tag_does_not_match() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(2, 1));
        let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(2, 2));
        assert!(m.is_err());
        assert_eq!(t.posted_len(), 1);
        assert_eq!(t.unexpected_len(), 1);
    }

    #[test]
    fn wildcard_receive_matches_any_source() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(ANY_SOURCE, 0));
        let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(5, 0));
        assert!(m.is_ok());
    }

    #[test]
    fn wildcard_post_drains_unexpected() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let _ = t.match_arrival(&mut sim, 0, &cost, msg(4, 0));
        let (u, _) = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(ANY_SOURCE, 0));
        assert_eq!(u.unwrap_err().1.src, 4);
    }

    #[test]
    fn per_key_fifo_order() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        for user in 0..3 {
            let mut r = recv(1, 1);
            r.user = user;
            let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, r);
        }
        for expect in 0..3 {
            let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(1, 1));
            assert_eq!(m.unwrap().0.user, expect);
        }
    }

    #[test]
    fn exact_receive_preferred_over_wildcard() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(0);
        let mut wild = recv(ANY_SOURCE, 3);
        wild.user = 111;
        let mut exact = recv(6, 3);
        exact.user = 222;
        let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, wild);
        let _ = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, exact);
        let (m, _) = t.match_arrival(&mut sim, 0, &cost, msg(6, 3));
        assert_eq!(m.unwrap().0.user, 222);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Conservation: every receive is eventually satisfiable by
            /// exactly one message and vice versa — no matches are lost
            /// or duplicated under any interleaving of posts and arrivals.
            #[test]
            fn posts_and_arrivals_conserve(
                ops in proptest::collection::vec((any::<bool>(), 0usize..3, 0u64..3), 1..200)
            ) {
                let mut sim = Sim::new(0);
                let cost = CostModel::default();
                let mut t = MatchTable::new(0);
                let mut matched = 0usize;
                let mut posts = 0usize;
                let mut arrivals = 0usize;
                for (is_post, src, tag) in ops {
                    if is_post {
                        posts += 1;
                        let r = PostedRecv { src, tag, comp: Comp::None, user: 0 };
                        if t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, r).0.is_err() {
                            matched += 1;
                        }
                    } else {
                        arrivals += 1;
                        let m = UnexpectedMsg {
                            src,
                            tag,
                            data: Bytes::new(),
                            rts: false,
                            imm: 0,
                            size: 0,
                            arrived: SimTime::ZERO,
                        };
                        if t.match_arrival(&mut sim, 0, &cost, m).0.is_ok() {
                            matched += 1;
                        }
                    }
                }
                prop_assert_eq!(t.posted_len() + matched, posts, "receive conservation");
                prop_assert_eq!(t.unexpected_len() + matched, arrivals, "message conservation");
            }
        }
    }

    #[test]
    fn contended_table_serializes() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut t = MatchTable::new(400);
        let (_, d0) = t.post_recv_at(&mut sim, 0, SimTime::ZERO, &cost, recv(1, 1));
        let (_, d1) = t.post_recv_at(&mut sim, 1, SimTime::ZERO, &cost, recv(1, 2));
        assert!(d1 - d0 >= 400, "cross-core table access pays transfer");
    }
}
