//! Beacon frame serialization for the actor driver.
//!
//! The actor driver's nodes exchange **serialized frames**, not shared
//! references: a sender encodes its beacon into bytes once, and every
//! receiver decodes its own copy — exactly the boundary a real radio
//! stack imposes. The workspace's offline `serde` shim has no
//! serializer, so the codec is hand-rolled: little-endian fixed-width
//! integers and length-prefixed sequences, with a fallible decoder
//! (`None` on truncated or trailing bytes).
//!
//! The codec must be **lossless**: the cross-driver agreement suite
//! relies on `decode(encode(b))` behaving exactly like `b` under
//! [`crate::Protocol::receive`].

/// A beacon that can cross the actor driver's wire.
///
/// Implemented here for the primitive beacon types the test protocols
/// use; protocol crates implement it for their own beacon structs (see
/// `mwn_cluster`'s `ClusterBeacon`).
pub trait WireBeacon: Sized {
    /// Appends the serialized beacon to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one beacon from `bytes`, which must contain exactly one
    /// encoded beacon. Returns `None` on truncated, malformed, or
    /// trailing input.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Decodes one beacon from `bytes` into `out`, reusing whatever
    /// buffers `out` already owns — the actor fabric's receive workers
    /// decode every frame into one pooled beacon. Returns `true` exactly
    /// when [`WireBeacon::decode`] returns `Some`, and `out` then equals
    /// that beacon whatever it held before; on `false`, `out` is left
    /// unchanged. The default decodes and assigns; beacons that own
    /// heap buffers override it to refill them in place.
    fn decode_into(bytes: &[u8], out: &mut Self) -> bool {
        match Self::decode(bytes) {
            Some(beacon) => {
                *out = beacon;
                true
            }
            None => false,
        }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Consumes a little-endian `u32` from the front of `bytes`.
pub fn take_u32(bytes: &mut &[u8]) -> Option<u32> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    *bytes = rest;
    Some(u32::from_le_bytes(*head))
}

/// Consumes a little-endian `u64` from the front of `bytes`.
pub fn take_u64(bytes: &mut &[u8]) -> Option<u64> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    *bytes = rest;
    Some(u64::from_le_bytes(*head))
}

impl WireBeacon for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut bytes = bytes;
        let v = take_u32(&mut bytes)?;
        bytes.is_empty().then_some(v)
    }
}

impl WireBeacon for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut bytes = bytes;
        let v = take_u64(&mut bytes)?;
        bytes.is_empty().then_some(v)
    }
}

impl WireBeacon for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0u32, 1, 7, u32::MAX] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(u32::decode(&buf), Some(v));
        }
        for v in [0u64, 42, u64::MAX] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(u64::decode(&buf), Some(v));
        }
        let mut buf = Vec::new();
        ().encode(&mut buf);
        assert_eq!(<()>::decode(&buf), Some(()));
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        assert_eq!(u32::decode(&[1, 2, 3]), None);
        assert_eq!(u32::decode(&[1, 2, 3, 4, 5]), None);
        assert_eq!(u64::decode(&[0; 7]), None);
        assert_eq!(<()>::decode(&[0]), None);
    }

    /// `decode_into` on every prefix and one-byte extension of an
    /// encoded value, plus a few arbitrary strings: it must agree with
    /// `decode`, overwrite `out` on success and leave it alone on
    /// failure.
    fn decode_into_agrees<B>(value: B, stale: B)
    where
        B: WireBeacon + Clone + PartialEq + std::fmt::Debug,
    {
        let mut frame = Vec::new();
        value.encode(&mut frame);
        let mut inputs: Vec<Vec<u8>> = (0..=frame.len()).map(|k| frame[..k].to_vec()).collect();
        inputs.push([&frame[..], &[0xAB]].concat());
        inputs.push(vec![0xFF; 3]);
        inputs.push(vec![0x5A; 17]);
        for bytes in inputs {
            let mut out = stale.clone();
            let ok = B::decode_into(&bytes, &mut out);
            match B::decode(&bytes) {
                Some(decoded) => {
                    assert!(ok, "decode accepted {bytes:?}");
                    assert_eq!(out, decoded);
                }
                None => {
                    assert!(!ok, "decode rejected {bytes:?}");
                    assert_eq!(
                        out, stale,
                        "a rejected frame must not touch the pooled beacon"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_into_agrees_with_decode_on_primitives() {
        decode_into_agrees(0xDEAD_BEEFu32, 7u32);
        decode_into_agrees(u64::MAX - 5, 1u64);
        decode_into_agrees((), ());
    }
}
