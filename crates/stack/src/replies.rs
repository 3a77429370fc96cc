//! The frames one received frame provokes, held inline.

use core::ops::Index;

/// The reply frames of one [`RxResult`](crate::RxResult): at most two,
/// stored inline so that answering a frame costs no allocation beyond
/// the (pooled) frame buffers themselves.
///
/// Two is the protocol's bound, not a tuning choice: a segment draws at
/// most one congestion-control retransmission (fast retransmit or a
/// NewReno partial-ACK head — one `CcAction` per ACK) and at most one
/// acknowledgement of its own
/// (ACK, SYN-ACK or RST). Reads like the `Vec<Vec<u8>>` it
/// replaced: `len`, indexing, and by-value or by-reference iteration
/// yielding the frames in emission order.
#[derive(Debug, Clone, Default)]
pub struct Replies {
    /// Filled front to back: `frames[1]` is `Some` only if `frames[0]` is.
    frames: [Option<Vec<u8>>; 2],
}

impl Replies {
    /// Append a frame.
    ///
    /// # Panics
    ///
    /// On a third frame — a receive path that emits one has broken the
    /// bound above.
    pub(crate) fn push(&mut self, frame: Vec<u8>) {
        let slot = self
            .frames
            .iter_mut()
            .find(|slot| slot.is_none())
            .expect("a received frame draws at most two replies");
        *slot = Some(frame);
    }

    /// Number of reply frames.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the frame drew no reply.
    pub fn is_empty(&self) -> bool {
        self.frames[0].is_none()
    }

    /// The frames, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.frames.iter().flatten()
    }
}

impl From<Vec<u8>> for Replies {
    /// A single reply.
    fn from(frame: Vec<u8>) -> Self {
        Self {
            frames: [Some(frame), None],
        }
    }
}

impl Extend<Vec<u8>> for Replies {
    fn extend<I: IntoIterator<Item = Vec<u8>>>(&mut self, frames: I) {
        frames.into_iter().for_each(|frame| self.push(frame));
    }
}

impl Index<usize> for Replies {
    type Output = Vec<u8>;

    fn index(&self, index: usize) -> &Vec<u8> {
        self.frames
            .get(index)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("reply {index} of {}", self.len()))
    }
}

impl IntoIterator for Replies {
    type Item = Vec<u8>;
    type IntoIter = core::iter::Flatten<core::array::IntoIter<Option<Vec<u8>>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter().flatten()
    }
}

impl<'a> IntoIterator for &'a Replies {
    type Item = &'a Vec<u8>;
    type IntoIter = core::iter::Flatten<core::slice::Iter<'a, Option<Vec<u8>>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_like_a_vec_of_frames() {
        let mut replies = Replies::default();
        assert!(replies.is_empty());
        assert_eq!(replies.len(), 0);
        replies.push(vec![1]);
        replies.push(vec![2, 2]);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[1], [2, 2]);
        assert_eq!(replies.iter().map(Vec::len).sum::<usize>(), 3);
        let mut wire: Vec<Vec<u8>> = Vec::new();
        wire.extend(replies.clone());
        assert_eq!(wire, [vec![1], vec![2, 2]]);
        assert_eq!(Replies::from(vec![9]).into_iter().next(), Some(vec![9]));
    }

    #[test]
    #[should_panic(expected = "at most two replies")]
    fn a_third_reply_is_a_bug() {
        let mut replies = Replies::from(vec![1]);
        replies.push(vec![2]);
        replies.push(vec![3]);
    }
}
