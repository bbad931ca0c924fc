//! Queue data units: items and frame headers.

use cg_ecc::{decode, encode, Codeword, Decoded};

/// Identifies a frame within a stream (the value of the producer's
/// `active-fc` counter when the frame began).
///
/// "Header values in the order of thousands are enough to identify frames
/// across a streaming graph" (§6) — a `u32` is ample.
pub type FrameId = u32;

/// Reserved frame id signalling end of computation (§4.1: "a special frame
/// ID indicating the end of computation is inserted to every outgoing
/// queue").
pub const END_FRAME_ID: FrameId = u32::MAX;

/// A word-sized data unit travelling through a queue.
///
/// The header/item distinction is carried by a tag (the paper's
/// *header bit*); header payloads are ECC-protected end to end, item
/// payloads are raw and corruptible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// A regular data item (raw, error-prone).
    Item(u32),
    /// A frame header carrying an ECC-encoded [`FrameId`].
    Header(Codeword),
}

impl Unit {
    /// Builds a header unit for `frame` (performs one `compute-ECC`).
    pub fn header(frame: FrameId) -> Self {
        Unit::Header(encode(frame))
    }

    /// The end-of-computation header.
    pub fn end_header() -> Self {
        Unit::header(END_FRAME_ID)
    }

    /// `true` for header units (the paper's `is-header` suboperation).
    #[inline]
    pub fn is_header(&self) -> bool {
        matches!(self, Unit::Header(_))
    }

    /// Decodes a header unit's frame id (performs one `check-ECC`).
    ///
    /// Returns `None` for item units or for headers whose ECC detects
    /// uncorrectable corruption.
    pub fn header_id(&self) -> Option<FrameId> {
        match self {
            Unit::Item(_) => None,
            Unit::Header(cw) => match decode(*cw) {
                Decoded::Clean(id) | Decoded::Corrected(id) => Some(id),
                Decoded::Detected => None,
            },
        }
    }

    /// The raw item payload, if this is an item.
    pub fn item_value(&self) -> Option<u32> {
        match self {
            Unit::Item(v) => Some(*v),
            Unit::Header(_) => None,
        }
    }
}

impl From<u32> for Unit {
    fn from(v: u32) -> Self {
        Unit::Item(v)
    }
}

/// Tag bit distinguishing header codewords from item payloads in a ring
/// slot. Items are 32-bit and codewords 39-bit, so bit 63 is always free.
pub(crate) const HEADER_TAG: u64 = 1 << 63;

/// Encodes a unit as its ring-slot word: an item is its zero-extended
/// payload (so `Item(0)` is the all-zero word and a zeroed allocation is
/// a ring of `Item(0)`s), a header is its codeword with [`HEADER_TAG`].
#[inline]
pub(crate) fn encode_unit(unit: Unit) -> u64 {
    match unit {
        Unit::Item(v) => u64::from(v),
        Unit::Header(cw) => HEADER_TAG | cw.raw(),
    }
}

/// Inverse of [`encode_unit`]; a corrupted codeword survives bit-exactly.
#[inline]
pub(crate) fn decode_unit(word: u64) -> Unit {
    if word & HEADER_TAG != 0 {
        Unit::Header(Codeword::from_raw(word & !HEADER_TAG))
    } else {
        Unit::Item(word as u32)
    }
}

/// Something a producer can write into a ring slot: a [`Unit`], or a bare
/// `u32` item payload that never needs a `Unit` built for it.
pub(crate) trait SlotWord: Copy {
    /// The slot word ([`encode_unit`] of the unit this value denotes).
    fn word(self) -> u64;
}

impl SlotWord for Unit {
    #[inline]
    fn word(self) -> u64 {
        encode_unit(self)
    }
}

impl SlotWord for u32 {
    #[inline]
    fn word(self) -> u64 {
        u64::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Unit::header(1234);
        assert!(h.is_header());
        assert_eq!(h.header_id(), Some(1234));
        assert_eq!(h.item_value(), None);
    }

    #[test]
    fn item_accessors() {
        let i: Unit = 77u32.into();
        assert!(!i.is_header());
        assert_eq!(i.item_value(), Some(77));
        assert_eq!(i.header_id(), None);
    }

    #[test]
    fn end_header_is_reserved_id() {
        assert_eq!(Unit::end_header().header_id(), Some(END_FRAME_ID));
    }

    #[test]
    fn corrupted_header_single_bit_survives() {
        if let Unit::Header(cw) = Unit::header(42) {
            let h = Unit::Header(cw.with_flipped_bit(9));
            assert_eq!(h.header_id(), Some(42));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn corrupted_header_double_bit_detected() {
        if let Unit::Header(cw) = Unit::header(42) {
            let h = Unit::Header(cw.with_flipped_bit(9).with_flipped_bit(20));
            assert_eq!(h.header_id(), None);
        } else {
            unreachable!();
        }
    }
}
