//! Parcels: the unit of remote action invocation.

use std::fmt;
use std::ops::Deref;

use bytes::Bytes;

use crate::action::ActionId;

/// A parcel's argument list: its encoded argument blobs, read as a
/// `[Bytes]` slice (`args[0]`, `.iter()`, `.len()`).
///
/// Most actions take one argument, and that one is held inline: a
/// one-argument parcel, built by a caller or decoded from a message,
/// allocates no list. Two or more arguments live in a `Vec`; an empty
/// list allocates nothing. Lists compare equal when their slices do,
/// however they were built.
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    /// Exactly one argument.
    One(Bytes),
    /// Zero arguments, or two or more.
    Many(Vec<Bytes>),
}

// An argument list is a parcel field, and a parcel is a run-queue slot
// (see `Job` in `locality.rs`); it must not grow past one `Bytes`.
const _: () = assert!(std::mem::size_of::<Args>() == 32);

impl Args {
    /// An empty list (no allocation).
    pub const fn new() -> Self {
        Args(Repr::Many(Vec::new()))
    }

    /// Append `arg`. The first argument of an empty list is held inline;
    /// a second one moves both into a `Vec`.
    pub fn push(&mut self, arg: Bytes) {
        match &mut self.0 {
            Repr::Many(v) if !v.is_empty() => v.push(arg),
            Repr::Many(_) => self.0 = Repr::One(arg),
            Repr::One(first) => {
                let first = std::mem::take(first);
                self.0 = Repr::Many(vec![first, arg]);
            }
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Args::new()
    }
}

impl Deref for Args {
    type Target = [Bytes];
    #[inline]
    fn deref(&self) -> &[Bytes] {
        match &self.0 {
            Repr::One(arg) => std::slice::from_ref(arg),
            Repr::Many(v) => v,
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for Args {}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Bytes> for Args {
    fn from(arg: Bytes) -> Self {
        Args(Repr::One(arg))
    }
}

impl From<Vec<Bytes>> for Args {
    /// A one-element `Vec` is unwrapped to the inline form (its buffer is
    /// freed); any other keeps its buffer.
    fn from(v: Vec<Bytes>) -> Self {
        match <[Bytes; 1]>::try_from(v) {
            Ok([arg]) => Args(Repr::One(arg)),
            Err(v) => Args(Repr::Many(v)),
        }
    }
}

impl FromIterator<Bytes> for Args {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Self {
        let mut args = Args::new();
        for arg in iter {
            args.push(arg);
        }
        args
    }
}

/// A parcel: "the collection of arguments to invoke an action, provided by
/// the source locality, along with some metadata of the action invoked"
/// (§2.2). Argument blobs are already encoded by the caller; blobs at or
/// above the zero-copy serialization threshold become zero-copy chunks of
/// the HPX message. A parcel is 40 B: the action id and an [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parcel {
    /// The action to invoke at the destination.
    pub action: ActionId,
    /// Encoded argument blobs.
    pub args: Args,
}

impl Parcel {
    /// Build a parcel. `args` is one [`Bytes`], a `Vec` of them, or an
    /// [`Args`].
    pub fn new(action: ActionId, args: impl Into<Args>) -> Self {
        Parcel { action, args: args.into() }
    }

    /// Build an argument-less parcel.
    pub fn empty(action: ActionId) -> Self {
        Parcel { action, args: Args::new() }
    }

    /// Total payload bytes across all arguments.
    pub fn payload_bytes(&self) -> usize {
        self.args.iter().map(|a| a.len()).sum()
    }

    /// Bytes that will serialize into the non-zero-copy chunk given the
    /// zero-copy `threshold` (arguments strictly below it).
    pub fn small_bytes(&self, threshold: usize) -> usize {
        self.args.iter().map(|a| a.len()).filter(|&l| l < threshold).sum()
    }

    /// Arguments that become zero-copy chunks (length >= `threshold`).
    pub fn zero_copy_args(&self, threshold: usize) -> impl Iterator<Item = &Bytes> {
        self.args.iter().filter(move |a| a.len() >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::HpxMessage;

    fn is_inline(args: &Args) -> bool {
        matches!(args.0, Repr::One(_))
    }

    #[test]
    fn byte_accounting() {
        let p = Parcel::new(
            3,
            vec![
                Bytes::from(vec![0u8; 10]),
                Bytes::from(vec![0u8; 100]),
                Bytes::from(vec![0u8; 5]),
            ],
        );
        assert_eq!(p.payload_bytes(), 115);
        assert_eq!(p.small_bytes(50), 15);
        assert_eq!(p.zero_copy_args(50).count(), 1);
        assert_eq!(p.zero_copy_args(5).count(), 3);
        assert_eq!(p.zero_copy_args(1000).count(), 0);
    }

    #[test]
    fn empty_parcel() {
        let p = Parcel::empty(9);
        assert_eq!(p.action, 9);
        assert_eq!(p.payload_bytes(), 0);
        assert!(p.args.is_empty());
        assert_eq!(p, Parcel::new(9, Vec::new()));
    }

    #[test]
    fn threshold_boundary_is_inclusive_for_zero_copy() {
        let p = Parcel::new(0, vec![Bytes::from(vec![0u8; 64])]);
        // Exactly at threshold => zero-copy (HPX: >= threshold).
        assert_eq!(p.zero_copy_args(64).count(), 1);
        assert_eq!(p.small_bytes(64), 0);
        assert_eq!(p.zero_copy_args(65).count(), 0);
    }

    #[test]
    fn one_argument_is_held_inline_however_it_arrives() {
        let b = Bytes::from_static(b"arg");
        let mut pushed = Args::new();
        pushed.push(b.clone());
        for args in [Args::from(b.clone()), Args::from(vec![b.clone()]), pushed] {
            assert!(is_inline(&args), "{args:?} spilled");
            assert_eq!((args.len(), args[0].as_ptr()), (1, b.as_ptr()));
        }
    }

    #[test]
    fn a_second_push_spills_to_a_vec() {
        let mut args = Args::from(Bytes::from_static(b"a"));
        args.push(Bytes::from_static(b"b"));
        assert!(!is_inline(&args));
        args.push(Bytes::from_static(b"c"));
        let got: Vec<&[u8]> = args.iter().map(|a| &a[..]).collect();
        assert_eq!(got, [b"a", b"b", b"c"]);
    }

    #[test]
    fn lists_built_differently_compare_equal() {
        let (a, b) = (Bytes::from_static(b"a"), Bytes::copy_from_slice(b"b"));
        assert_eq!(Args::from(a.clone()), Args::from(vec![a.clone()]));
        assert_eq!(Args::new(), Args::from(Vec::new()));
        let mut pushed = Args::new();
        pushed.push(a.clone());
        pushed.push(b.clone());
        assert_eq!(pushed, Args::from(vec![a.clone(), b.clone()]));
        assert_ne!(pushed, Args::from(a.clone()));
        assert_ne!(Args::from(a), Args::from(b));
    }

    #[test]
    fn args_collect_from_an_iterator() {
        let none: Args = std::iter::empty().collect();
        assert!(none.is_empty());
        let one: Args = std::iter::once(Bytes::from_static(b"x")).collect();
        assert!(is_inline(&one));
        let three: Args = (0u8..3).map(|i| Bytes::from(vec![i])).collect();
        assert_eq!(three, Args::from(vec![vec![0u8].into(), vec![1u8].into(), vec![2u8].into()]));
    }

    #[test]
    fn a_one_argument_message_decodes_inline() {
        let sent = [Parcel::new(4, Bytes::from_static(b"one")), Parcel::empty(5)];
        let mut got = Vec::new();
        HpxMessage::encode(&sent, 8192).for_each_parcel(|p| got.push(p));
        assert_eq!(got, sent);
        assert!(is_inline(&got[0].args));
    }
}
