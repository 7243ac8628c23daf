//! The fixed-size slotted-page format of the paged heap backend.
//!
//! Every heap file is a sequence of [`PAGE_SIZE`]-byte pages. Byte 0 of
//! a page is its *kind*:
//!
//! * [`KIND_SLOTTED`] — a classic slotted data page: a 16-byte header
//!   (`u16` slot count at offset 2, `u16` data start at offset 4), a
//!   slot directory growing *up* from offset 16 (4 bytes per slot:
//!   `u16` tuple offset, `u16` tuple length), and tuple data growing
//!   *down* from the page end. Tuples are encoded with the shared
//!   [`crate::codec`] (arity + tagged values). A deleted tuple leaves a
//!   *tombstone*: its slot's offset becomes 0, which is never a data
//!   offset (data starts past the header and directory).
//! * [`KIND_JUMBO_FIRST`] / [`KIND_JUMBO_CONT`] — a tuple whose encoding
//!   exceeds [`MAX_INLINE_TUPLE`] occupies a dedicated chain of pages:
//!   the first page stores the `u32` total length at offset 4 and
//!   payload from offset 8; continuation pages store payload from
//!   offset 8. A deleted chain is tombstoned through byte 1 of its first
//!   page; the length stays, so a reader can still step over the chain.
//!
//! Reading a tombstone is an error; dead space is reclaimed only when
//! the backend rewrites the file.
//!
//! The functions here operate on raw page buffers (the bytes a
//! [`crate::pool::BufferPool`] frame lends out); they never do IO.

use prefsql_types::{Error, Result};

/// Size of every page, on disk and in a pool frame.
pub const PAGE_SIZE: usize = 4096;

/// Page kind: slotted data page.
pub const KIND_SLOTTED: u8 = 1;
/// Page kind: first page of an oversized-tuple chain.
pub const KIND_JUMBO_FIRST: u8 = 2;
/// Page kind: continuation page of an oversized-tuple chain.
pub const KIND_JUMBO_CONT: u8 = 3;

/// Bytes of slotted-page header before the slot directory.
const HEADER_LEN: usize = 16;
/// Bytes per slot-directory entry (`u16` offset + `u16` length).
const SLOT_BYTES: usize = 4;
/// Byte-1 flag of a jumbo chain's first page: the chain is deleted.
const JUMBO_DEAD: u8 = 1;
/// Payload bytes per jumbo page (after kind byte + length header).
pub const JUMBO_PAYLOAD: usize = PAGE_SIZE - 8;

/// The largest tuple encoding a slotted page can hold (one slot on an
/// otherwise empty page); anything larger goes to a jumbo chain.
pub const MAX_INLINE_TUPLE: usize = PAGE_SIZE - HEADER_LEN - SLOT_BYTES;

fn u16_at(page: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([page[off], page[off + 1]])
}

fn put_u16(page: &mut [u8], off: usize, v: u16) {
    page[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// The kind byte of a page.
pub fn kind(page: &[u8]) -> u8 {
    page[0]
}

/// Initialize a buffer as an empty slotted page.
pub fn init_slotted(page: &mut [u8]) {
    page[..HEADER_LEN].fill(0);
    page[0] = KIND_SLOTTED;
    put_u16(page, 2, 0);
    put_u16(page, 4, PAGE_SIZE as u16 - 1); // data start; 4095 = empty
}

/// Number of slots on a slotted page.
pub fn slot_count(page: &[u8]) -> u16 {
    u16_at(page, 2)
}

/// Offset of the lowest data byte (data grows down from the page end).
/// Stored off-by-one (`lowest - 1`) so the empty page's `PAGE_SIZE`
/// still fits a `u16`.
fn data_start(page: &[u8]) -> usize {
    u16_at(page, 4) as usize + 1
}

/// Free bytes between the slot directory and the data region.
pub fn free_space(page: &[u8]) -> usize {
    let dir_end = HEADER_LEN + SLOT_BYTES * slot_count(page) as usize;
    data_start(page).saturating_sub(dir_end)
}

/// True if a tuple of `len` encoded bytes (plus its slot entry) fits.
pub fn fits(page: &[u8], len: usize) -> bool {
    free_space(page) >= len + SLOT_BYTES
}

/// Append one encoded tuple to a slotted page; returns its slot index.
pub fn append_slot(page: &mut [u8], bytes: &[u8]) -> Result<u16> {
    if kind(page) != KIND_SLOTTED {
        return Err(Error::Io("heap page is not a slotted page".into()));
    }
    if !fits(page, bytes.len()) {
        return Err(Error::Io("slotted page overflow".into()));
    }
    let count = slot_count(page);
    let off = data_start(page) - bytes.len();
    page[off..off + bytes.len()].copy_from_slice(bytes);
    let slot_off = HEADER_LEN + SLOT_BYTES * count as usize;
    put_u16(page, slot_off, off as u16);
    put_u16(page, slot_off + 2, bytes.len() as u16);
    put_u16(page, 2, count + 1);
    put_u16(page, 4, off as u16 - 1);
    Ok(count)
}

/// Slot `slot`'s directory position and its `(offset, length)` entry.
/// Errors unless the slot exists and still holds a tuple.
fn live_entry(page: &[u8], slot: u16) -> Result<(usize, usize, usize)> {
    if kind(page) != KIND_SLOTTED || slot >= slot_count(page) {
        return Err(Error::Io(format!("no slot {slot} on heap page")));
    }
    let slot_off = HEADER_LEN + SLOT_BYTES * slot as usize;
    let off = u16_at(page, slot_off) as usize;
    let len = u16_at(page, slot_off + 2) as usize;
    if off == 0 {
        return Err(Error::Io(format!("slot {slot} on heap page is deleted")));
    }
    if off + len > PAGE_SIZE {
        return Err(Error::Io("corrupt heap page: slot out of bounds".into()));
    }
    Ok((slot_off, off, len))
}

/// The encoded bytes of slot `slot` on a slotted page. A tombstone is
/// an error.
pub fn read_slot(page: &[u8], slot: u16) -> Result<&[u8]> {
    let (_, off, len) = live_entry(page, slot)?;
    Ok(&page[off..off + len])
}

/// True if slot `slot` (which must exist) is a tombstone.
pub fn is_tombstone(page: &[u8], slot: u16) -> bool {
    u16_at(page, HEADER_LEN + SLOT_BYTES * slot as usize) == 0
}

/// Delete slot `slot`'s tuple, leaving a tombstone. The slot keeps its
/// index, so the page's other slots keep theirs.
pub fn tombstone_slot(page: &mut [u8], slot: u16) -> Result<()> {
    let (slot_off, _, _) = live_entry(page, slot)?;
    put_u16(page, slot_off, 0);
    put_u16(page, slot_off + 2, 0);
    Ok(())
}

/// Replace slot `slot`'s tuple in place. Returns `false` (page
/// untouched) when the new encoding neither fits the old slot nor the
/// page's free space — the caller falls back to a file rewrite.
pub fn replace_slot(page: &mut [u8], slot: u16, bytes: &[u8]) -> Result<bool> {
    let (slot_off, off, len) = live_entry(page, slot)?;
    if bytes.len() <= len {
        // Shrinking replace reuses the old slot's bytes (the slack is
        // reclaimed at the next file rewrite).
        page[off..off + bytes.len()].copy_from_slice(bytes);
        put_u16(page, slot_off + 2, bytes.len() as u16);
        return Ok(true);
    }
    if free_space(page) >= bytes.len() {
        // Growing replace appends to the data region and repoints the
        // slot; the old bytes become slack.
        let new_off = data_start(page) - bytes.len();
        page[new_off..new_off + bytes.len()].copy_from_slice(bytes);
        put_u16(page, slot_off, new_off as u16);
        put_u16(page, slot_off + 2, bytes.len() as u16);
        put_u16(page, 4, new_off as u16 - 1);
        return Ok(true);
    }
    Ok(false)
}

/// Initialize a jumbo chain page. `total` is only written on the first
/// page; `chunk` is this page's payload.
pub fn init_jumbo(page: &mut [u8], first: bool, total: u32, chunk: &[u8]) {
    page[..8].fill(0);
    page[0] = if first {
        KIND_JUMBO_FIRST
    } else {
        KIND_JUMBO_CONT
    };
    if first {
        page[4..8].copy_from_slice(&total.to_le_bytes());
    }
    page[8..8 + chunk.len()].copy_from_slice(chunk);
}

/// A jumbo chain's first page: its total encoded length, and whether
/// the chain still holds a tuple (`false` once tombstoned).
pub fn jumbo_head(page: &[u8]) -> Result<(usize, bool)> {
    if kind(page) != KIND_JUMBO_FIRST {
        return Err(Error::Io("heap page is not a jumbo head".into()));
    }
    let total = u32::from_le_bytes([page[4], page[5], page[6], page[7]]) as usize;
    Ok((total, page[1] & JUMBO_DEAD == 0))
}

/// Total encoded length of a live jumbo chain. A tombstone is an error.
pub fn jumbo_total(page: &[u8]) -> Result<usize> {
    match jumbo_head(page)? {
        (total, true) => Ok(total),
        (_, false) => Err(Error::Io("jumbo chain on heap page is deleted".into())),
    }
}

/// Delete the tuple of the jumbo chain whose first page this is.
pub fn tombstone_jumbo(page: &mut [u8]) -> Result<()> {
    jumbo_total(page)?;
    page[1] |= JUMBO_DEAD;
    Ok(())
}

/// The payload region of a jumbo page, truncated to `remaining` bytes.
pub fn jumbo_chunk(page: &[u8], remaining: usize) -> &[u8] {
    &page[8..8 + remaining.min(JUMBO_PAYLOAD)]
}

/// Number of pages a jumbo chain of `total` encoded bytes occupies.
pub fn jumbo_pages(total: usize) -> u32 {
    (total.div_ceil(JUMBO_PAYLOAD)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init_slotted(&mut p);
        p
    }

    #[test]
    fn append_and_read_slots() {
        let mut p = fresh();
        assert_eq!(kind(&p), KIND_SLOTTED);
        assert_eq!(slot_count(&p), 0);
        let a = append_slot(&mut p, b"alpha").unwrap();
        let b = append_slot(&mut p, b"b").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(read_slot(&p, 0).unwrap(), b"alpha");
        assert_eq!(read_slot(&p, 1).unwrap(), b"b");
        assert!(read_slot(&p, 2).is_err());
    }

    #[test]
    fn fills_to_capacity_then_overflows() {
        let mut p = fresh();
        let tuple = vec![7u8; 100];
        let mut n = 0;
        while fits(&p, tuple.len()) {
            append_slot(&mut p, &tuple).unwrap();
            n += 1;
        }
        // 16-byte header + n*(100 + 4) ≤ 4095.
        assert_eq!(n, (PAGE_SIZE - HEADER_LEN - 1) / (100 + SLOT_BYTES));
        assert!(append_slot(&mut p, &tuple).is_err());
        // Every slot still reads back.
        for s in 0..slot_count(&p) {
            assert_eq!(read_slot(&p, s).unwrap(), &tuple[..]);
        }
    }

    #[test]
    fn replace_in_place_and_grow() {
        let mut p = fresh();
        append_slot(&mut p, b"0123456789").unwrap();
        append_slot(&mut p, b"second").unwrap();
        // Shrink: reuses the slot.
        assert!(replace_slot(&mut p, 0, b"tiny").unwrap());
        assert_eq!(read_slot(&p, 0).unwrap(), b"tiny");
        assert_eq!(read_slot(&p, 1).unwrap(), b"second");
        // Grow within free space: repoints the slot.
        assert!(replace_slot(&mut p, 0, b"a longer replacement").unwrap());
        assert_eq!(read_slot(&p, 0).unwrap(), b"a longer replacement");
        // Grow past the page: refused, page untouched.
        let huge = vec![1u8; PAGE_SIZE];
        assert!(!replace_slot(&mut p, 0, &huge).unwrap());
        assert_eq!(read_slot(&p, 0).unwrap(), b"a longer replacement");
    }

    #[test]
    fn max_inline_tuple_fits_an_empty_page() {
        let mut p = fresh();
        let tuple = vec![9u8; MAX_INLINE_TUPLE - 1];
        append_slot(&mut p, &tuple).unwrap();
        assert_eq!(read_slot(&p, 0).unwrap().len(), MAX_INLINE_TUPLE - 1);
    }

    #[test]
    fn jumbo_chain_round_trip() {
        let total = JUMBO_PAYLOAD + 1000;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        assert_eq!(jumbo_pages(total), 2);
        let mut first = vec![0u8; PAGE_SIZE];
        let mut cont = vec![0u8; PAGE_SIZE];
        init_jumbo(&mut first, true, total as u32, &data[..JUMBO_PAYLOAD]);
        init_jumbo(&mut cont, false, 0, &data[JUMBO_PAYLOAD..]);
        assert_eq!(kind(&first), KIND_JUMBO_FIRST);
        assert_eq!(kind(&cont), KIND_JUMBO_CONT);
        assert_eq!(jumbo_total(&first).unwrap(), total);
        let mut got = Vec::new();
        got.extend_from_slice(jumbo_chunk(&first, total));
        got.extend_from_slice(jumbo_chunk(&cont, total - JUMBO_PAYLOAD));
        assert_eq!(got, data);
        assert!(jumbo_total(&cont).is_err());
    }

    #[test]
    fn tombstoned_slots_error_and_neighbours_stay() {
        let mut p = fresh();
        for t in [&b"first"[..], b"middle", b"last"] {
            append_slot(&mut p, t).unwrap();
        }
        tombstone_slot(&mut p, 1).unwrap();
        assert!(is_tombstone(&p, 1));
        assert!(!is_tombstone(&p, 0) && !is_tombstone(&p, 2));
        assert_eq!(slot_count(&p), 3, "a tombstone keeps its slot index");
        assert!(matches!(read_slot(&p, 1), Err(Error::Io(_))));
        assert!(matches!(replace_slot(&mut p, 1, b"x"), Err(Error::Io(_))));
        assert!(matches!(tombstone_slot(&mut p, 1), Err(Error::Io(_))));
        assert_eq!(read_slot(&p, 0).unwrap(), b"first");
        assert_eq!(read_slot(&p, 2).unwrap(), b"last");
    }

    #[test]
    fn tombstoned_jumbo_head_keeps_its_length() {
        let mut first = vec![0u8; PAGE_SIZE];
        init_jumbo(&mut first, true, 5000, &[7u8; JUMBO_PAYLOAD]);
        assert_eq!(jumbo_head(&first).unwrap(), (5000, true));
        tombstone_jumbo(&mut first).unwrap();
        assert_eq!(jumbo_head(&first).unwrap(), (5000, false));
        assert!(matches!(jumbo_total(&first), Err(Error::Io(_))));
        assert!(matches!(tombstone_jumbo(&mut first), Err(Error::Io(_))));
    }
}
