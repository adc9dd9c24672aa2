//! Varint-based binary codec.
//!
//! The paper serializes API messages with Google's Protocol Buffers
//! before pushing them through `AF_UNIX` sockets. This module is a
//! self-contained protobuf-inspired codec: LEB128 varints for
//! integers, length-delimited byte strings, and fixed field order per
//! message (no tags — both ends are always the same version in this
//! system, and the framing layer carries a protocol version byte for
//! safety).
//!
//! Like a `.proto` file, a message is declared once: [`Wire`] is
//! implemented here for the primitives messages are made of, and
//! `wire_struct!` / `wire_enum!` derive both directions of a struct or
//! enum from its one listing in [`crate::messages`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// Varint longer than 10 bytes (would overflow u64).
    VarintOverflow,
    /// A length prefix exceeded the remaining buffer or a sanity cap.
    BadLength(u64),
    /// Enum discriminant out of range.
    BadDiscriminant(u64),
    /// Non-UTF-8 string payload.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::BadLength(n) => write!(f, "bad length prefix: {n}"),
            WireError::BadDiscriminant(d) => write!(f, "bad enum discriminant: {d}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on any single length-delimited element (64 MiB) — way
/// above any control message, and it stops hostile lengths from
/// triggering huge allocations.
pub const MAX_ELEMENT_LEN: u64 = 64 * 1024 * 1024;

pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut out: u64 = 0;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let byte = buf.get_u8();
        out |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical overlong encodings of small values
            // only when they would overflow; otherwise accept.
            return Ok(out);
        }
    }
    Err(WireError::VarintOverflow)
}

pub fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(v as u8);
}

pub fn get_bool(buf: &mut Bytes) -> Result<bool, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8() != 0)
}

pub fn put_bytes(buf: &mut BytesMut, v: &[u8]) {
    put_varint(buf, v.len() as u64);
    buf.put_slice(v);
}

pub fn get_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_ELEMENT_LEN {
        return Err(WireError::BadLength(len));
    }
    if buf.remaining() < len as usize {
        return Err(WireError::Truncated);
    }
    Ok(buf.copy_to_bytes(len as usize))
}

pub fn put_str(buf: &mut BytesMut, v: &str) {
    put_bytes(buf, v.as_bytes());
}

pub fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    let raw = get_bytes(buf)?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Things that can be encoded to / decoded from the wire.
pub trait Wire: Sized {
    fn encode(&self, buf: &mut BytesMut);
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    fn from_bytes(bytes: Bytes) -> Result<Self, WireError> {
        let mut b = bytes;
        let v = Self::decode(&mut b)?;
        Ok(v)
    }
}

/// Every integer travels as the same varint; a value that does not
/// fit a narrower field is refused, never truncated.
macro_rules! wire_uint {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, u64::from(*self));
            }

            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                let v = get_varint(buf)?;
                <$t>::try_from(v).map_err(|_| WireError::BadLength(v))
            }
        }
    )+};
}
wire_uint!(u64, u32, u8);

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        put_bool(buf, *self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_bool(buf)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_str(buf)
    }
}

/// Presence byte, then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.is_some().encode(buf);
        if let Some(v) = self {
            v.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(if bool::decode(buf)? {
            Some(T::decode(buf)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Count, then elements. A list field without a cap of its own is
/// bounded by the frame it arrived in ([`MAX_ELEMENT_LEN`] is above
/// any frame).
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_seq(buf, MAX_ELEMENT_LEN as usize)
    }
}

/// The one sequence decoder: a count of at most `cap`, then that many
/// elements. The count is refused before anything is allocated, and
/// the allocation does not trust it beyond a few elements either.
pub(crate) fn get_seq<T: Wire>(buf: &mut Bytes, cap: usize) -> Result<Vec<T>, WireError> {
    let n = get_varint(buf)?;
    if n > cap as u64 {
        return Err(WireError::BadLength(n));
    }
    let mut out = Vec::with_capacity((n as usize).min(1024));
    for _ in 0..n {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

/// Declare a wire struct: the type exactly as listed plus its
/// [`Wire`] impl. Fields cross the wire in listing order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty ),+
        }

        impl Wire for $name {
            fn encode(&self, buf: &mut BytesMut) {
                $( Wire::encode(&self.$field, buf); )+
            }

            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                Ok($name { $( $field: Wire::decode(buf)? ),+ })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declare a wire enum as a `discriminant => Variant` list: the type
/// exactly as listed (unit, one-field tuple and struct variants) plus
/// its [`Wire`] impl — varint discriminant, then the variant's fields
/// in listing order. A discriminant not listed decodes to
/// [`WireError::BadDiscriminant`], so a retired code is retired by
/// leaving its number out. A list field written
/// `name: Vec<T> [..= CAP]` refuses a longer count with
/// [`WireError::BadLength`] before allocating.
macro_rules! wire_enum {
    (@bind $inner:ident $t:ty) => { $inner };
    (@get $buf:ident $t:ty) => { <$t as Wire>::decode($buf)? };
    (@get $buf:ident $t:ty, $cap:expr) => { get_seq($buf, $cap)? };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $disc:literal => $variant:ident
                $( ( $tuple:ty ) )?
                $( {
                    $( $(#[$fmeta:meta])* $field:ident : $fty:ty $( [..= $cap:expr] )? ),+ $(,)?
                } )?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ( $tuple ) )? $( { $( $(#[$fmeta])* $field: $fty ),+ } )?
            ),+
        }

        impl Wire for $name {
            fn encode(&self, buf: &mut BytesMut) {
                match self {
                    $(
                        $name::$variant
                            $( ( wire_enum!(@bind inner $tuple) ) )?
                            $( { $( $field ),+ } )?
                        => {
                            put_varint(buf, $disc);
                            $( <$tuple as Wire>::encode(inner, buf); )?
                            $( $( Wire::encode($field, buf); )+ )?
                        }
                    )+
                }
            }

            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                Ok(match get_varint(buf)? {
                    $(
                        $disc => $name::$variant
                            $( ( <$tuple as Wire>::decode(buf)? ) )?
                            $( { $( $field: wire_enum!(@get buf $fty $(, $cap)?) ),+ } )?,
                    )+
                    other => return Err(WireError::BadDiscriminant(other)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_u64(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        let mut b = buf.freeze();
        get_varint(&mut b).unwrap()
    }

    #[test]
    fn varint_boundaries() {
        for v in [0, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip_u64(v), v);
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u64| {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            buf.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut b = Bytes::from_static(&[0x80, 0x80]);
        assert_eq!(get_varint(&mut b), Err(WireError::Truncated));
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "lustre://scratch/αβγ");
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b).unwrap(), "lustre://scratch/αβγ");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b), Err(WireError::BadUtf8));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, MAX_ELEMENT_LEN + 1);
        let mut b = buf.freeze();
        assert!(matches!(get_bytes(&mut b), Err(WireError::BadLength(_))));
    }

    #[test]
    fn truncated_bytes_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 100);
        buf.put_slice(&[1, 2, 3]);
        let mut b = buf.freeze();
        assert_eq!(get_bytes(&mut b), Err(WireError::Truncated));
    }

    #[test]
    fn bools() {
        let mut buf = BytesMut::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        let mut b = buf.freeze();
        assert!(get_bool(&mut b).unwrap());
        assert!(!get_bool(&mut b).unwrap());
        assert_eq!(get_bool(&mut b), Err(WireError::Truncated));
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v: u64) {
            prop_assert_eq!(roundtrip_u64(v), v);
        }

        #[test]
        fn prop_bytes_roundtrip(v: Vec<u8>) {
            let mut buf = BytesMut::new();
            put_bytes(&mut buf, &v);
            let mut b = buf.freeze();
            prop_assert_eq!(get_bytes(&mut b).unwrap().to_vec(), v);
        }

        #[test]
        fn prop_decode_never_panics(v: Vec<u8>) {
            // Arbitrary garbage must produce Err, never panic.
            let mut b = Bytes::from(v);
            let _ = get_varint(&mut b);
            let mut b2 = b.clone();
            let _ = get_bytes(&mut b2);
            let mut b3 = b;
            let _ = get_str(&mut b3);
        }
    }
}
