//! Helpers the integration tests share. A test target takes them in
//! with `mod testkit;`.

use std::fmt::{self, Debug};

/// Where two per-node slices first differ: the node, and its value on
/// each side as `{:?}` prints it (`None` past the end of a shorter
/// side).
pub struct Divergence {
    node: usize,
    left: Option<String>,
    right: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |value: &Option<String>| value.as_deref().unwrap_or("nothing").to_owned();
        write!(
            f,
            "node {}\n  left:  {}\n  right: {}",
            self.node,
            side(&self.left),
            side(&self.right)
        )
    }
}

/// The first node at which `left` and `right` differ, or `None` when
/// they are equal — in place of an `assert_eq!` that prints both whole
/// vectors and leaves the reader to find the difference.
pub fn first_divergence<T: PartialEq + Debug>(left: &[T], right: &[T]) -> Option<Divergence> {
    let node = match left.iter().zip(right).position(|(l, r)| l != r) {
        Some(node) => node,
        None if left.len() == right.len() => return None,
        None => left.len().min(right.len()),
    };
    let value = |side: &[T]| side.get(node).map(|v| format!("{v:?}"));
    Some(Divergence {
        node,
        left: value(left),
        right: value(right),
    })
}
