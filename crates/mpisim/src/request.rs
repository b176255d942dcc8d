//! Request handles: completion handles polled with `MPI_Test`.
//!
//! A [`Request`] is a copyable key into its communicator's request table,
//! a generation-checked [`Slab`]. Posting an operation that cannot finish
//! at once stores a pending entry; [`crate::Comm::take`] frees a finished
//! one and hands back its [`Completion`], the way `MPI_Test` sets a
//! finished handle to `MPI_REQUEST_NULL`. An eager send finishes at post
//! and returns [`Request::NULL`], which stores nothing, is always done and
//! takes as an empty completion. A key used after its entry was taken
//! panics with the name of the call.

use bytes::Bytes;
use netsim::NodeId;
use simcore::{SimTime, Slab};

/// A nonblocking-operation handle, like an `MPI_Request`: a key into the
/// request table of the [`crate::Comm`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request(u64);

const _: () = assert!(std::mem::size_of::<Request>() == 8);

impl Request {
    /// The null request (`MPI_REQUEST_NULL`): always done, nothing to
    /// take. Slab keys stay below 2^62, so no entry ever has this key.
    pub const NULL: Request = Request(u64::MAX);
}

/// What a finished request reports, like an `MPI_Status` with its buffer.
#[derive(Debug, Default)]
pub struct Completion {
    /// Actual source of the matched message (receives; the destination
    /// for a rendezvous send).
    pub src: NodeId,
    /// Actual tag of the matched message.
    pub tag: u64,
    /// Received payload (receives only).
    pub data: Bytes,
    /// Wire-arrival instant of the completing packet (receives only;
    /// `SimTime::ZERO` when not applicable). Observability only.
    pub arrived: SimTime,
}

/// A request's entry in the table: `None` while the operation is pending.
type RequestState = Option<Completion>;

/// The request table a [`crate::Comm`] owns. Each method takes the name of
/// the public call it serves, for the panic a stale key raises.
#[derive(Debug, Default)]
pub(crate) struct Requests(Slab<RequestState>);

impl Requests {
    /// Store a pending request.
    pub(crate) fn pending(&mut self) -> Request {
        Request(self.0.insert(None))
    }

    /// Store a request that finished at post.
    pub(crate) fn completed(&mut self, done: Completion) -> Request {
        Request(self.0.insert(Some(done)))
    }

    /// Finish a pending request.
    pub(crate) fn complete(&mut self, req: Request, done: Completion) {
        let state = self.0.get_mut(req.0).expect("completing a request that was taken");
        debug_assert!(state.is_none(), "request completed twice");
        *state = Some(done);
    }

    /// Whether `req` finished (a pure state read).
    pub(crate) fn is_done(&self, req: Request, call: &str) -> bool {
        req == Request::NULL || self.state(req, call).is_some()
    }

    /// Free a finished request and return its completion.
    pub(crate) fn take(&mut self, req: Request, call: &str) -> Completion {
        if req == Request::NULL {
            return Completion::default();
        }
        assert!(self.state(req, call).is_some(), "{call}: {req:?} is still pending");
        self.0.remove(req.0).flatten().expect("checked live and done")
    }

    /// Requests stored (pending, or finished and not yet taken).
    pub(crate) fn live(&self) -> usize {
        self.0.len()
    }

    fn state(&self, req: Request, call: &str) -> &RequestState {
        self.0.get(req.0).unwrap_or_else(|| panic!("{call}: stale {req:?}, already taken"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = Requests::default();
        let r = t.pending();
        assert!(!t.is_done(r, "test"));
        let data = Bytes::from_static(b"zz");
        t.complete(r, Completion { src: 3, tag: 9, data, arrived: SimTime::ZERO });
        assert!(t.is_done(r, "test"));
        let done = t.take(r, "test");
        assert_eq!(done.src, 3);
        assert_eq!(done.tag, 9);
        assert_eq!(done.data.as_ref(), b"zz");
        assert_eq!(t.live(), 0, "taking frees the entry");
    }

    #[test]
    fn clones_share_state() {
        let mut t = Requests::default();
        let r = t.pending();
        let c = r;
        t.complete(r, Completion::default());
        assert!(t.is_done(c, "test"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "request completed twice")]
    fn double_complete_panics_in_debug() {
        let mut t = Requests::default();
        let r = t.pending();
        t.complete(r, Completion::default());
        t.complete(r, Completion::default());
    }
}
