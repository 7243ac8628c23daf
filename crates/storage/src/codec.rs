//! The tagged-value binary codec shared by every on-disk tuple format.
//!
//! Spill runs ([`crate::spill`]) and heap-file pages ([`crate::page`])
//! serialize tuples identically: a `u32` arity followed by one tagged
//! value per field (tag byte + fixed or length-prefixed payload). This
//! module is the single definition of that encoding, so the spill
//! window's byte accounting, the Grace join's partition sizing and the
//! paged backend's free-space math all agree on what a tuple weighs.
//!
//! There are two decoders, one per kind of input: spill runs stream
//! values off a buffered reader (`read_value`), heap pages hand over a
//! slot's bytes whole (`decode_slot`, which can skip building the
//! columns its caller will not read, though it never skips checking
//! them).
//!
//! The encoding is private to this crate's file formats: it carries no
//! version header and makes no cross-version compatibility promise.

use prefsql_types::{Date, Error, Result, Tuple, Value};
use std::io::{Read, Write};

/// Value tags (one byte per value).
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DATE: u8 = 5;

/// The serialized size of one tuple (arity header + tagged values), in
/// bytes. Also used as the in-memory byte estimate for window
/// accounting, so "window budget" and "bytes spilled" speak the same
/// unit.
pub fn tuple_spill_bytes(t: &Tuple) -> usize {
    4 + t.values().iter().map(value_spill_bytes).sum::<usize>()
}

/// The serialized size of one value (tag byte + payload). The single
/// size table behind every byte estimate — callers that weigh candidates
/// without building [`Tuple`]s sum this directly.
pub fn value_spill_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) | Value::Date(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

pub(crate) fn write_value(out: &mut impl Write, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.write_all(&[TAG_NULL])?,
        Value::Bool(b) => out.write_all(&[TAG_BOOL, u8::from(*b)])?,
        Value::Int(i) => {
            out.write_all(&[TAG_INT])?;
            out.write_all(&i.to_le_bytes())?;
        }
        Value::Float(f) => {
            out.write_all(&[TAG_FLOAT])?;
            out.write_all(&f.to_bits().to_le_bytes())?;
        }
        Value::Str(s) => {
            let len = u32::try_from(s.len())
                .map_err(|_| Error::Io(format!("string of {} bytes exceeds format", s.len())))?;
            out.write_all(&[TAG_STR])?;
            out.write_all(&len.to_le_bytes())?;
            out.write_all(s.as_bytes())?;
        }
        Value::Date(d) => {
            out.write_all(&[TAG_DATE])?;
            out.write_all(&d.days().to_le_bytes())?;
        }
    }
    Ok(())
}

pub(crate) fn read_exact<const N: usize>(input: &mut impl Read) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    input
        .read_exact(&mut buf)
        .map_err(|e| Error::Io(format!("truncated tuple data: {e}")))?;
    Ok(buf)
}

pub(crate) fn read_value(input: &mut impl Read) -> Result<Value> {
    let [tag] = read_exact::<1>(input)?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(read_exact::<1>(input)?[0] != 0),
        TAG_INT => Value::Int(i64::from_le_bytes(read_exact::<8>(input)?)),
        TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(read_exact::<8>(input)?))),
        TAG_STR => {
            let len = u32::from_le_bytes(read_exact::<4>(input)?) as usize;
            let mut bytes = vec![0u8; len];
            input
                .read_exact(&mut bytes)
                .map_err(|e| Error::Io(format!("truncated tuple data: {e}")))?;
            Value::Str(
                String::from_utf8(bytes).map_err(|e| Error::Io(format!("corrupt tuple: {e}")))?,
            )
        }
        TAG_DATE => Value::Date(Date::from_days(i64::from_le_bytes(read_exact::<8>(input)?))),
        other => return Err(Error::Io(format!("corrupt tuple: unknown tag {other}"))),
    })
}

/// Serialize one tuple (arity header + values) onto the end of `buf`.
pub(crate) fn encode_tuple(buf: &mut Vec<u8>, t: &Tuple) -> Result<()> {
    let arity = u32::try_from(t.len())
        .map_err(|_| Error::Io(format!("tuple of {} fields exceeds format", t.len())))?;
    buf.extend_from_slice(&arity.to_le_bytes());
    for v in t.values() {
        write_value(buf, v)?;
    }
    Ok(())
}

/// Decode the tuple that exactly fills `bytes` — one heap slot, or one
/// reassembled jumbo chain — into `out`, reusing its value vector.
///
/// With a `mask`, columns whose entry is `false` come back as `NULL`
/// (columns past the mask's end are decoded). Masking saves only the
/// allocation and copy: every column is still tag-, length- and
/// UTF-8-checked, so a masked decode rejects exactly the bytes a full
/// decode rejects.
pub(crate) fn decode_slot(bytes: &[u8], mask: Option<&[bool]>, out: &mut Tuple) -> Result<()> {
    let mut rest = bytes;
    let arity = u32::from_le_bytes(take::<4>(&mut rest)?) as usize;
    // Every value is at least its tag byte: a larger arity is corrupt,
    // and must not size the allocation below.
    if arity > rest.len() {
        return Err(Error::Io(format!(
            "corrupt tuple: arity {arity} in {} bytes",
            bytes.len()
        )));
    }
    let mut values = std::mem::take(out).into_values();
    values.clear();
    values.reserve(arity);
    for i in 0..arity {
        let wanted = mask.map_or(true, |m| m.get(i).copied().unwrap_or(true));
        values.push(slice_value(&mut rest, wanted)?);
    }
    *out = Tuple::new(values);
    if !rest.is_empty() {
        return Err(Error::Io(format!(
            "corrupt tuple: {} trailing bytes",
            rest.len()
        )));
    }
    Ok(())
}

/// Split `n` bytes off the front of `rest`.
fn take_slice<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if rest.len() < n {
        return Err(Error::Io("truncated tuple data".into()));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// Split `N` bytes off the front of `rest`, as an array.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N]> {
    let mut out = [0u8; N];
    out.copy_from_slice(take_slice(rest, N)?);
    Ok(out)
}

/// One tagged value off the front of `rest`; `NULL` unless `wanted`,
/// after the same checks either way.
fn slice_value(rest: &mut &[u8], wanted: bool) -> Result<Value> {
    let [tag] = take::<1>(rest)?;
    let v = match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take::<1>(rest)?[0] != 0),
        TAG_INT => Value::Int(i64::from_le_bytes(take::<8>(rest)?)),
        TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(take::<8>(rest)?))),
        TAG_STR => {
            let len = u32::from_le_bytes(take::<4>(rest)?) as usize;
            let s = std::str::from_utf8(take_slice(rest, len)?)
                .map_err(|e| Error::Io(format!("corrupt tuple: {e}")))?;
            // Copy only what is kept; `String::new` does not allocate.
            Value::Str(if wanted { s.to_owned() } else { String::new() })
        }
        TAG_DATE => Value::Date(Date::from_days(i64::from_le_bytes(take::<8>(rest)?))),
        other => return Err(Error::Io(format!("corrupt tuple: unknown tag {other}"))),
    };
    Ok(if wanted { v } else { Value::Null })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::tuple;

    fn encoded(t: &Tuple) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_tuple(&mut buf, t).unwrap();
        buf
    }

    #[test]
    fn tuples_round_trip_and_sizes_are_exact() {
        let cases = vec![
            tuple![1, "audi", 2.5, true],
            Tuple::new(vec![Value::Null, Value::Date(Date::from_days(10_000))]),
            Tuple::new(vec![]),
            tuple!["grüß gott", ""],
        ];
        // One reused output row across every case, as a page scan uses it.
        let mut out = tuple![99, "stale"];
        for t in cases {
            let buf = encoded(&t);
            assert_eq!(
                buf.len(),
                tuple_spill_bytes(&t),
                "size table drifted: {t:?}"
            );
            decode_slot(&buf, None, &mut out).unwrap();
            assert_eq!(out, t);
            // The streaming decoder spill runs use reads the same bytes.
            let mut stream = &buf[4..];
            let values: Vec<Value> = (0..t.len())
                .map(|_| read_value(&mut stream).unwrap())
                .collect();
            assert_eq!(Tuple::new(values), t);
        }
    }

    #[test]
    fn masked_columns_read_as_null() {
        let t = tuple![1, "audi", 2.5, true];
        let mut out = Tuple::default();
        decode_slot(&encoded(&t), Some(&[false, true, false]), &mut out).unwrap();
        // Column 3 lies past the mask and is decoded.
        assert_eq!(
            out,
            Tuple::new(vec![
                Value::Null,
                Value::str("audi"),
                Value::Null,
                Value::Bool(true)
            ])
        );
    }

    #[test]
    fn truncation_and_bad_tags_error() {
        let buf = encoded(&tuple![17, "body"]);
        let mut out = Tuple::default();
        let short = &buf[..buf.len() - 1];
        assert!(matches!(
            decode_slot(short, None, &mut out),
            Err(Error::Io(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99; // clobber the first value tag
        assert!(matches!(
            decode_slot(&bad, None, &mut out),
            Err(Error::Io(_))
        ));
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(
            decode_slot(&long, None, &mut out),
            Err(Error::Io(_))
        ));
        let mut huge = buf;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_slot(&huge, None, &mut out),
            Err(Error::Io(_))
        ));
    }

    #[test]
    fn masked_out_columns_are_still_checked() {
        // [17, "body", 3]: arity 0..4, INT 4..13, STR tag 13, length
        // 14..18, body 18..22, INT 22..31. Column 1 is masked out.
        let buf = encoded(&tuple![17, "body", 3]);
        let mask: &[bool] = &[true, false, true];
        let mut out = Tuple::default();
        decode_slot(&buf, Some(mask), &mut out).unwrap();
        assert_eq!(
            out,
            Tuple::new(vec![Value::Int(17), Value::Null, Value::Int(3)])
        );
        let mut bad_utf8 = buf.clone();
        bad_utf8[18] = 0xFF;
        let mut bad_tag = buf.clone();
        bad_tag[13] = 99;
        let mut overlong = buf.clone();
        overlong[14..18].copy_from_slice(&100u32.to_le_bytes());
        let truncated = &buf[..20];
        for corrupt in [&bad_utf8[..], &bad_tag[..], &overlong[..], truncated] {
            assert!(matches!(
                decode_slot(corrupt, None, &mut out),
                Err(Error::Io(_))
            ));
            assert!(
                matches!(
                    decode_slot(corrupt, Some(mask), &mut out),
                    Err(Error::Io(_))
                ),
                "a masked-out column skipped a check"
            );
        }
    }
}
